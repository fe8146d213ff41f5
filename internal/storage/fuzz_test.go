package storage

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"
)

// FuzzReadManifest fuzzes the one input every broker trusts for placement.
// No input may panic the parser; every file it accepts has a replica set
// led by its primary, free of duplicates and inside [0, Nodes); and what it
// accepted survives WriteManifest → ReadManifest unchanged.
func FuzzReadManifest(f *testing.F) {
	for trial := 0; trial < 8; trial++ {
		var buf bytes.Buffer
		if err := WriteManifest(&buf, randomStore(rand.New(rand.NewSource(int64(1000+trial))))); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Add([]byte("nodes 4\n/cgi-bin/query.cgi 512 3 cgi 4e+07\n/docs/a.dat 2048 0\n/docs/b.dat 4096 2\n"))
	f.Add([]byte("# c\n\nnodes 3\n/d 1 0,2,1\n/e 0 1,1\n/f 5 -1\n/g 7 2 cgi NaN\n"))
	f.Add([]byte("nodes 99999999999\n/d 1 0\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := ReadManifest(bytes.NewReader(data))
		if err != nil {
			return
		}
		for _, p := range s.Paths() {
			file, _ := s.Lookup(p)
			reps := file.ReplicaSet()
			if reps[0] != file.Owner {
				t.Fatalf("%s: replica set %v not led by owner %d", p, reps, file.Owner)
			}
			seen := make(map[int]bool)
			for _, r := range reps {
				if r < 0 || r >= s.Nodes() || seen[r] {
					t.Fatalf("%s: replica set %v on %d nodes", p, reps, s.Nodes())
				}
				seen[r] = true
			}
		}
		var buf bytes.Buffer
		if err := WriteManifest(&buf, s); err != nil {
			t.Fatal(err)
		}
		again, err := ReadManifest(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("rewritten manifest rejected: %v\n%s", err, buf.String())
		}
		if again.Nodes() != s.Nodes() || again.Len() != s.Len() {
			t.Fatalf("round trip changed shape: %d/%d nodes, %d/%d files",
				again.Nodes(), s.Nodes(), again.Len(), s.Len())
		}
		for _, p := range s.Paths() {
			want, _ := s.Lookup(p)
			if have, _ := again.Lookup(p); !reflect.DeepEqual(want, have) {
				t.Fatalf("%s changed in round trip: %+v != %+v", p, want, have)
			}
		}
	})
}
