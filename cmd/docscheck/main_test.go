package main

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// fixture is a module with a nested second module in bench/, standing in
// for the repository and its benchmark.
const fixture = "testdata/module"

func TestDeadNames(t *testing.T) {
	dead, err := deadNames(fixture)
	if err != nil {
		t.Fatal(err)
	}
	// Not dead: lib.BenchOnly (only bench/ calls it), Base.Name (promoted
	// into Wrapper, which satisfies Namer), libtest.Helper (a *test
	// package) and T.Used.
	want := map[string]bool{"fix/lib.Dead": true, "fix/lib.T.OnlyTested": true}
	if !reflect.DeepEqual(dead, want) {
		t.Errorf("deadNames = %v, want %v", dead, want)
	}
}

func TestCheckDeadNames(t *testing.T) {
	for _, tc := range []struct {
		name, allowlist string
		want            []string // one substring per problem
	}{
		{"every dead name listed", "# comment\n\nfix/lib.Dead kept\nfix/lib.T.OnlyTested kept\n", nil},
		{"new dead name", "fix/lib.Dead kept\n", []string{"fix/lib.T.OnlyTested: no non-test code references it"}},
		{"stale entry", "fix/lib.Dead kept\nfix/lib.T.OnlyTested kept\nfix/lib.T.Used kept\n",
			[]string{"fix/lib.T.Used is listed but is no longer a dead name"}},
		{"gone entry", "fix/lib.Dead kept\nfix/lib.T.OnlyTested kept\nfix/lib.Gone kept\n",
			[]string{"fix/lib.Gone is listed but is no longer a dead name"}},
		{"entry without reason", "fix/lib.Dead\nfix/lib.T.OnlyTested kept\n",
			[]string{"fix/lib.Dead is listed without a reason"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "deadnames.txt")
			if err := os.WriteFile(path, []byte(tc.allowlist), 0o644); err != nil {
				t.Fatal(err)
			}
			problems, err := checkDeadNames(fixture, path)
			if err != nil {
				t.Fatal(err)
			}
			if len(problems) != len(tc.want) {
				t.Fatalf("problems = %q, want %d", problems, len(tc.want))
			}
			for i, p := range problems {
				if !strings.Contains(p, tc.want[i]) {
					t.Errorf("problem %d = %q, want it to contain %q", i, p, tc.want[i])
				}
			}
		})
	}
}
