package main

import (
	"strings"
	"testing"
)

// TestRunRejectsBadFlags: a row count outside one bank's rows, or a flag
// pair that contradicts itself, returns an error naming the flag instead of
// printing a result for some other stream. Values past the bound are only
// ever rejected here, never run: every row submits its requests up front.
func TestRunRejectsBadFlags(t *testing.T) {
	for _, tc := range []struct {
		name                         string
		rows                         int
		broadcast, write, singleBank bool
		want                         string
	}{
		{"rows zero", 0, false, false, false, "-rows"},
		{"rows negative", -3, false, false, false, "-rows"},
		{"rows past a bank", 16385, false, false, false, "-rows"},
		{"rows huge", 1 << 30, true, false, false, "-rows"},
		{"single bank in all-bank mode", 8, true, false, true, "-single-bank and -broadcast"},
	} {
		err := run(tc.rows, tc.broadcast, tc.write, tc.singleBank)
		if err == nil {
			t.Errorf("%s: run accepted the bad flags", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not name %s", tc.name, err, tc.want)
		}
	}
	if err := run(1, true, true, false); err != nil {
		t.Fatalf("good flags rejected: %v", err)
	}
}
