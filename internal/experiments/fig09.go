package experiments

import (
	"github.com/papi-sim/papi/internal/design"
	"github.com/papi-sim/papi/internal/model"
	"github.com/papi-sim/papi/internal/workload"
)

// Fig9 reproduces Fig. 9: the general-qa dataset on GPT-3 175B with the
// three designs the figure plots (A100+AttAcc, AttAcc-only, PAPI).
// Paper headline: 1.7× over A100+AttAcc, 8.1× over AttAcc-only, 3.1× energy
// efficiency — all lower than creative-writing because the shorter outputs
// shrink the decode phase PAPI accelerates (§7.2).
func Fig9() Fig8Result {
	return fig8Like(workload.GeneralQA(),
		[]model.Config{model.GPT3_175B()},
		[]*design.System{design.MustBuild(design.A100AttAcc()), design.MustBuild(design.AttAccOnly()), design.MustBuild(design.PAPI(0))})
}
