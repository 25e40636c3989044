package main

import (
	"maps"
	"testing"

	"phihpl/internal/server"
)

// TestTenantWeights runs -tenant-weights values through the flag's whole
// path, parseWeights then server.Open: a typo is an error, never a weight
// for a tenant no job can name.
func TestTenantWeights(t *testing.T) {
	for _, tc := range []struct {
		flag    string
		refused bool
		want    map[string]int
	}{
		{"", false, nil},
		{"alice=3,bob=1", false, map[string]int{"alice": 3, "bob": 1}},
		{"alice =3", false, map[string]int{"alice": 3}},
		{" alice = 3 , bob=1 ", false, map[string]int{"alice": 3, "bob": 1}},
		{"=3", true, nil},
		{"a=1,a=3", true, nil},
		{"a=1, a =3", true, nil},
		{"alice", true, nil},
		{"alice=0", true, nil},
		{"alice=x", true, nil},
		{"al ice=2", true, nil},
	} {
		tw, err := parseWeights(tc.flag)
		if err == nil {
			var srv *server.Server
			if srv, err = server.Open(server.Config{TenantWeights: tw}); err == nil {
				srv.Close()
			}
		}
		switch {
		case tc.refused && err == nil:
			t.Errorf("%q: accepted as %v, want an error", tc.flag, tw)
		case !tc.refused && (err != nil || !maps.Equal(tw, tc.want)):
			t.Errorf("%q: weights %v, err %v; want %v", tc.flag, tw, err, tc.want)
		}
	}
}
