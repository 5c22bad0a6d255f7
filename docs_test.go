package papi

import (
	"os"
	"regexp"
	"strings"
	"testing"

	"github.com/papi-sim/papi/internal/experiments"
)

// docs/SCENARIOS.md documents each registered scenario under a "## `name`"
// heading. The doc and the registry must not drift: every documented name
// must resolve, and every registered scenario must be documented.
func TestScenarioDocsMatchRegistry(t *testing.T) {
	data, err := os.ReadFile("docs/SCENARIOS.md")
	if err != nil {
		t.Fatalf("reading scenario docs: %v", err)
	}
	doc := string(data)

	heading := regexp.MustCompile("(?m)^## `([^`]+)`$")
	documented := map[string]bool{}
	for _, m := range heading.FindAllStringSubmatch(doc, -1) {
		documented[m[1]] = true
	}
	if len(documented) == 0 {
		t.Fatal("docs/SCENARIOS.md documents no scenarios (no \"## `name`\" headings)")
	}

	registered := map[string]bool{}
	for _, name := range ScenarioNames() {
		registered[name] = true
	}

	for name := range documented {
		if !registered[name] {
			t.Errorf("docs/SCENARIOS.md documents %q, which is not in the scenario registry", name)
		}
	}
	for name := range registered {
		if !documented[name] {
			t.Errorf("scenario %q is registered but undocumented in docs/SCENARIOS.md", name)
		}
		// Each scenario's doc section must include a runnable command.
		if !strings.Contains(doc, "-scenario "+name) {
			t.Errorf("docs/SCENARIOS.md has no runnable papiserve command for %q", name)
		}
	}
}

// docs/DESIGNS.md documents each registered hardware design under a
// "## `name`" heading. The doc and the design registry must not drift:
// every documented name must resolve, every registered design must be
// documented, and each section must include a runnable -design command.
func TestDesignDocsMatchRegistry(t *testing.T) {
	data, err := os.ReadFile("docs/DESIGNS.md")
	if err != nil {
		t.Fatalf("reading design docs: %v", err)
	}
	doc := string(data)

	heading := regexp.MustCompile("(?m)^## `([^`]+)`$")
	documented := map[string]bool{}
	for _, m := range heading.FindAllStringSubmatch(doc, -1) {
		documented[m[1]] = true
	}
	if len(documented) == 0 {
		t.Fatal("docs/DESIGNS.md documents no designs (no \"## `name`\" headings)")
	}

	registered := map[string]bool{}
	for _, name := range DesignNames() {
		registered[name] = true
	}

	for name := range documented {
		if !registered[name] {
			t.Errorf("docs/DESIGNS.md documents %q, which is not in the design registry", name)
		}
	}
	for name := range registered {
		if !documented[name] {
			t.Errorf("design %q is registered but undocumented in docs/DESIGNS.md", name)
		}
		// Each design's doc section must include a runnable command (quoted
		// when the name has spaces).
		if !strings.Contains(doc, "-design "+name) && !strings.Contains(doc, `-design "`+name+`"`) {
			t.Errorf("docs/DESIGNS.md has no runnable -design command for %q", name)
		}
	}
}

// docs/ARCHITECTURE.md and docs/TESTING.md are the entry points; keep them
// present and linked from the README (and TESTING from ARCHITECTURE).
func TestDocsPresentAndLinked(t *testing.T) {
	for _, doc := range []string{"docs/ARCHITECTURE.md", "docs/DESIGNS.md", "docs/SCENARIOS.md", "docs/PERFORMANCE.md", "docs/KVCACHE.md", "docs/RESILIENCE.md", "docs/SCALE.md", "docs/TESTING.md", "docs/ANALYSIS.md"} {
		if _, err := os.Stat(doc); err != nil {
			t.Fatalf("%s missing: %v", doc, err)
		}
	}
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"docs/ARCHITECTURE.md", "docs/DESIGNS.md", "docs/SCENARIOS.md", "docs/PERFORMANCE.md", "docs/KVCACHE.md", "docs/RESILIENCE.md", "docs/SCALE.md", "docs/TESTING.md", "docs/ANALYSIS.md"} {
		if !strings.Contains(string(readme), want) {
			t.Errorf("README.md does not link %s", want)
		}
	}
	arch, err := os.ReadFile("docs/ARCHITECTURE.md")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(arch), "TESTING.md") {
		t.Error("docs/ARCHITECTURE.md does not link docs/TESTING.md")
	}
	if !strings.Contains(string(arch), "RESILIENCE.md") {
		t.Error("docs/ARCHITECTURE.md does not link docs/RESILIENCE.md")
	}
	if !strings.Contains(string(arch), "SCALE.md") {
		t.Error("docs/ARCHITECTURE.md does not link docs/SCALE.md")
	}
	testingDoc, err := os.ReadFile("docs/TESTING.md")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(testingDoc), "ANALYSIS.md") {
		t.Error("docs/TESTING.md does not link docs/ANALYSIS.md")
	}
	if !strings.Contains(string(testingDoc), "RESILIENCE.md") {
		t.Error("docs/TESTING.md does not link docs/RESILIENCE.md")
	}
	if !strings.Contains(string(testingDoc), "SCALE.md") {
		t.Error("docs/TESTING.md does not link docs/SCALE.md")
	}
}

// commandDocs are the documents whose quoted papibench/papiserve commands
// are validated against the real flag sets and registries: a doc quoting a
// figure, scenario, or flag that no longer exists must fail the suite.
var commandDocs = []string{
	"README.md",
	"docs/ARCHITECTURE.md",
	"docs/DESIGNS.md",
	"docs/SCENARIOS.md",
	"docs/PERFORMANCE.md",
	"docs/KVCACHE.md",
	"docs/RESILIENCE.md",
	"docs/SCALE.md",
	"docs/TESTING.md",
	"docs/ANALYSIS.md",
}

// Known flags per command, mirroring the flag definitions in
// cmd/papiserve/main.go and cmd/papibench/main.go. Adding a flag to a
// command means adding it here; removing one fails this test for every doc
// still quoting it — which is the point.
var commandFlags = map[string]map[string]bool{
	"papiserve": set("design", "list-designs", "model", "dataset", "replicas",
		"router", "rate", "requests", "maxbatch", "spec", "seed", "slo",
		"target", "sweep", "scenario", "trace", "save-trace", "autoscale",
		"classes", "kv-blocks", "kv-cold", "faults", "retries", "timeout",
		"shards", "checkpoint", "retain-requests", "cpuprofile", "memprofile"),
	"papibench": set("figure", "design", "list-designs",
		"cpuprofile", "memprofile", "faults"),
	"papivet": set("waivers"),
}

func set(names ...string) map[string]bool {
	m := make(map[string]bool, len(names))
	for _, n := range names {
		m[n] = true
	}
	return m
}

// TestDocCommandsResolve tokenizes every same-line papiserve/papibench
// invocation quoted in the docs and validates each `-flag` against the
// command's flag set, each `-figure` value against the experiments figure
// registry, each `-scenario` value against the workload scenario registry,
// and each `-design` value against the design registry (comma-separated
// lists per entry; spec-file paths are skipped). Placeholder values
// (`<name>`, globs) are skipped; `a|b`-alternative values are validated per
// alternative.
func TestDocCommandsResolve(t *testing.T) {
	figures := map[string]bool{}
	for _, id := range experiments.FigureIDs() {
		figures[id] = true
	}
	scenarios := map[string]bool{}
	for _, name := range ScenarioNames() {
		scenarios[name] = true
	}
	designs := map[string]bool{}
	for _, name := range DesignNames() {
		designs[name] = true
	}

	clean := func(tok string) string {
		return strings.Trim(tok, "`(),.;:\"'")
	}
	plain := regexp.MustCompile(`^[a-z0-9-]+$`)
	// Design names carry spaces ("PIM-only PAPI"), so a leading-quoted value
	// is rejoined across tokens before validating; file paths and comma
	// lists are handled per docs/DESIGNS.md semantics.
	checkDesign := func(t *testing.T, doc, cmd, raw string, rest []string) {
		val := raw
		if strings.HasPrefix(val, `"`) && strings.Count(val, `"`) == 1 {
			for _, tok := range rest {
				val += " " + tok
				if strings.Contains(tok, `"`) {
					break
				}
			}
		}
		val = strings.Trim(val, "`(),.;:\"'")
		if val == "" || strings.ContainsAny(val, "<>*$") {
			return // placeholder or glob: nothing concrete to resolve
		}
		for _, part := range strings.Split(val, ",") {
			part = strings.TrimSpace(part)
			if part == "" || strings.HasSuffix(part, ".json") || strings.Contains(part, "/") {
				continue // spec-file path: not a registry name
			}
			if !designs[part] {
				t.Errorf("%s quotes `%s -design %s`, but %q is not a registered design", doc, cmd, raw, part)
			}
		}
	}
	checkValue := func(t *testing.T, doc, cmd, flag, raw string, known map[string]bool) {
		val := clean(raw)
		if val == "" || strings.ContainsAny(val, "<>*$") {
			return // placeholder or glob: nothing concrete to resolve
		}
		for _, alt := range strings.Split(val, "|") {
			if !plain.MatchString(alt) {
				continue
			}
			if !known[alt] {
				t.Errorf("%s quotes `%s -%s %s`, but %q does not resolve", doc, cmd, flag, raw, alt)
			}
		}
	}

	for _, doc := range commandDocs {
		data, err := os.ReadFile(doc)
		if err != nil {
			t.Fatalf("reading %s: %v", doc, err)
		}
		for _, line := range strings.Split(string(data), "\n") {
			for cmd, flags := range commandFlags {
				idx := strings.Index(line, cmd)
				if idx < 0 {
					continue
				}
				toks := strings.Fields(line[idx+len(cmd):])
				for i, raw := range toks {
					// A flag ending in prose punctuation ("a named
					// `-scenario`, or …") or wrapped in backticks
					// ("`-design` takes …") is a mention, not an invocation:
					// validate the flag but not a following "value".
					mention := strings.HasSuffix(raw, ",") || strings.HasSuffix(raw, ";") ||
						strings.HasPrefix(raw, "`")
					tok := clean(raw)
					if !strings.HasPrefix(tok, "-") || len(tok) < 2 {
						continue
					}
					name, _, _ := strings.Cut(strings.TrimLeft(tok, "-"), "=")
					if name == "" || !plain.MatchString(name) {
						continue
					}
					if !flags[name] {
						t.Errorf("%s quotes `%s -%s`, which is not a %s flag", doc, cmd, name, cmd)
						continue
					}
					if i+1 < len(toks) && !mention {
						switch name {
						case "figure":
							checkValue(t, doc, cmd, name, toks[i+1], figures)
						case "scenario":
							checkValue(t, doc, cmd, name, toks[i+1], scenarios)
						case "design":
							checkDesign(t, doc, cmd, toks[i+1], toks[i+2:])
						}
					}
				}
			}
		}
	}
}
