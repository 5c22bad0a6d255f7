package experiments

import (
	"strings"
	"testing"
)

// The scale figure is self-verifying: every strategy must conserve the full
// stream.
func TestScaleInvariants(t *testing.T) {
	r := Scale()
	if len(r.Cells) != 2 {
		t.Fatalf("scale has %d cells, want 2", len(r.Cells))
	}
	for _, c := range r.Cells {
		if c.Completed != r.Requests {
			t.Errorf("%s: completed %d of %d requests", c.Config, c.Completed, r.Requests)
		}
		if c.Tokens <= 0 || c.TokensPerSec <= 0 || c.Makespan <= 0 {
			t.Errorf("%s: degenerate cell %+v", c.Config, c)
		}
		if c.TTFT.P99 < c.TTFT.P50 || c.TPOT.P99 < c.TPOT.P50 {
			t.Errorf("%s: percentiles not monotone: %+v %+v", c.Config, c.TTFT, c.TPOT)
		}
		if c.InteractiveAttainment < 0 || c.InteractiveAttainment > 1 {
			t.Errorf("%s: attainment %v outside [0, 1]", c.Config, c.InteractiveAttainment)
		}
	}
	serial, segments := r.Cells[0], r.Cells[1]
	if !serial.MatchesSerial || segments.MatchesSerial {
		t.Errorf("≡ serial column: serial %v, segments %v; want true, false", serial.MatchesSerial, segments.MatchesSerial)
	}
	if segments.Segments != 2 || segments.Tokens != serial.Tokens {
		t.Errorf("checkpointed split lost tokens: %d vs %d", segments.Tokens, serial.Tokens)
	}
	if !strings.Contains(r.String(), "serial") {
		t.Error("rendering lost the strategy table")
	}
}
