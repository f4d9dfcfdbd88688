package topo

import (
	"strings"
	"testing"
)

// FuzzLoadEdgeList checks the edge-list parser on arbitrary input: it must
// never panic, and any network it accepts must satisfy the structural
// invariants (attribute table sizes, probability ranges, resource
// non-negativity) checked by Network.Validate.
func FuzzLoadEdgeList(f *testing.F) {
	for _, seed := range []string{
		"",
		"node 0 0 0\nnode 1 10 0\nlink 0 1\n",
		"node 0 0 0 5 0.8\nnode 1 3 4 7 0.9\nlink 0 1 5 2\n",
		"# comment\n\nnode 0 0 0\nnode 1 1 1 # trailing\nlink 0 1\n",
		"node 0 0 0\nlink 0 0\n",
		"node 1 0 0\n",
		"link 0 1\n",
		"node 0 0 0\nnode 1 0 0\nlink 0 1 -5\n",
		"node 0 0 0\nnode 1 0 0\nlink 0 2\n",
		"node 0 x y\n",
		"node 0 0 0 -1\n",
		"frob 1 2 3\n",
		"node 0 0 0 3 1.5\n",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data string) {
		net, err := LoadEdgeList(strings.NewReader(data), noiseless(), 0)
		if err != nil {
			return
		}
		if net == nil {
			t.Fatalf("LoadEdgeList accepted %q but returned nil network", data)
		}
		if err := net.Validate(); err != nil {
			t.Fatalf("accepted network fails Validate: %v\ninput: %q", err, data)
		}
	})
}
