package design

import "fmt"

// Registered design names, in presentation order. These are the display
// names the figures, CLIs and docs have always used.
const (
	DesignPAPI       = "PAPI"
	DesignA100AttAcc = "A100+AttAcc"
	DesignA100HBMPIM = "A100+HBM-PIM"
	DesignAttAccOnly = "AttAcc-only"
	DesignPIMOnly    = "PIM-only PAPI"
)

// PAPI returns the full PAPI system as a spec: 6 GPUs whose memory is 30
// FC-PIM stacks, 60 disaggregated Attn-PIM stacks behind the auto-chosen
// fabric (CXL at this fan-out), and the dynamic parallelism-aware scheduler
// with threshold alpha (0 means DefaultAlpha).
func PAPI(alpha float64) Spec {
	return Spec{
		Name:         DesignPAPI,
		Description:  "GPU + hybrid FC-PIM/Attn-PIM with the dynamic parallelism-aware scheduler (§4)",
		GPU:          A100Node(),
		FCPIM:        FCPIMPool(WeightDevices),
		AttnPIM:      HBMPIMPool(AttnDevices),
		Policy:       PolicySpec{Kind: PolicyDynamic, Alpha: alpha},
		PrefillOnGPU: true,
		HostPowerW:   100,
	}
}

// A100AttAcc returns the state-of-the-art heterogeneous baseline [23] as a
// spec: FC statically on 6 A100s (plain HBM weight stacks), attention on
// AttAcc 1P1B PIM devices.
func A100AttAcc() Spec {
	return Spec{
		Name:         DesignA100AttAcc,
		Description:  "A100 node + AttAcc 1P1B attention PIM, FC statically on the GPU [23]",
		GPU:          A100Node(),
		AttnPIM:      AttAccPool(AttnDevices),
		Policy:       PolicySpec{Kind: PolicyStaticPU},
		PrefillOnGPU: true,
		HostPowerW:   100,
	}
}

// A100HBMPIM returns the A100 + Samsung HBM-PIM (1P2B) baseline [30] as a
// spec.
func A100HBMPIM() Spec {
	return Spec{
		Name:         DesignA100HBMPIM,
		Description:  "A100 node + Samsung HBM-PIM 1P2B attention PIM, FC statically on the GPU [30]",
		GPU:          A100Node(),
		AttnPIM:      HBMPIMPool(AttnDevices),
		Policy:       PolicySpec{Kind: PolicyStaticPU},
		PrefillOnGPU: true,
		HostPowerW:   100,
	}
}

// AttAccOnly returns the PIM-only baseline [23] as a spec: all FC and
// attention kernels on AttAcc 1P1B devices, no GPU. Prefill also runs on
// PIM.
func AttAccOnly() Spec {
	return Spec{
		Name:        DesignAttAccOnly,
		Description: "GPU-less AttAcc: FC, attention and prefill all on 1P1B PIM [23]",
		FCPIM:       AttAccPool(WeightDevices),
		AttnPIM:     AttAccPool(AttnDevices),
		Policy:      PolicySpec{Kind: PolicyStaticPIM},
		HostPowerW:  100,
	}
}

// PIMOnlyPAPI returns the §7.4 ablation as a spec: PAPI's hybrid PIM devices
// (FC-PIM + Attn-PIM) with no GPU, against which AttAcc-only isolates the
// benefit of the hybrid PIM design itself.
func PIMOnlyPAPI() Spec {
	return Spec{
		Name:        DesignPIMOnly,
		Description: "PAPI's hybrid FC-PIM/Attn-PIM pools with no GPU (§7.4 ablation)",
		FCPIM:       FCPIMPool(WeightDevices),
		AttnPIM:     HBMPIMPool(AttnDevices),
		Policy:      PolicySpec{Kind: PolicyStaticPIM},
		HostPowerW:  100,
	}
}

// MustBuild assembles a spec the program writes itself — a registry entry or
// a variant of one — whose failure to build is a programming error, not bad
// input. A spec or α from a caller goes through Build, which reports it.
func MustBuild(spec Spec) *System {
	sys, err := spec.Build()
	if err != nil {
		panic(fmt.Sprintf("design: program-written spec failed to build: %v", err))
	}
	return sys
}

// Fig8Systems builds the four systems of Fig. 8, in presentation order.
func Fig8Systems() []*System {
	return []*System{MustBuild(A100AttAcc()), MustBuild(A100HBMPIM()), MustBuild(AttAccOnly()), MustBuild(PAPI(0))}
}

// Registry returns every named design spec, in presentation order. Each call
// builds fresh values, so callers may not corrupt the registry.
func Registry() []Spec {
	return []Spec{PAPI(0), A100AttAcc(), A100HBMPIM(), AttAccOnly(), PIMOnlyPAPI()}
}

// Names lists the registered design names in presentation order.
func Names() []string {
	specs := Registry()
	names := make([]string, len(specs))
	for i, s := range specs {
		names[i] = s.Name
	}
	return names
}

// ByName resolves a registered design spec by its display name.
func ByName(name string) (Spec, error) {
	for _, s := range Registry() {
		if s.Name == name {
			return s, nil
		}
	}
	return Spec{}, fmt.Errorf("design: unknown design %q (have %v)", name, Names())
}
