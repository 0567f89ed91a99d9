package chaos

import (
	"reflect"
	"testing"
)

// FuzzParseSpec throws arbitrary text at the replay-line parser, whose
// input arrives from outside the program (`crsurvey chaos -replay
// -spec`). It must never panic, and any line it accepts must survive a
// MarshalLine → ParseSpec round trip unchanged, or a printed reproducer
// would not rerun the scenario it names.
func FuzzParseSpec(f *testing.F) {
	for seed := int64(1); seed <= 8; seed++ {
		f.Add(Generate(seed).MarshalLine())
	}
	f.Add("")
	f.Add("{}")
	f.Add("null")
	f.Add(`{"nodes":3,"mib":1,"iters":1,"interval":1,"hb":1,"budget":1,"failures":[]}`)

	f.Fuzz(func(t *testing.T, line string) {
		sp, err := ParseSpec(line)
		if err != nil {
			return
		}
		again, err := ParseSpec(sp.MarshalLine())
		if err != nil {
			t.Fatalf("re-parse of an accepted spec failed: %v\nline %s", err, sp.MarshalLine())
		}
		// Failures and Partitions are omitempty: an explicit empty list
		// comes back as nil, which schedules the same (empty) faults.
		if len(sp.Failures) == 0 {
			sp.Failures = nil
		}
		if len(sp.Partitions) == 0 {
			sp.Partitions = nil
		}
		if !reflect.DeepEqual(sp, again) {
			t.Fatalf("round trip changed spec:\n in %s\nout %s", sp.MarshalLine(), again.MarshalLine())
		}
	})
}
