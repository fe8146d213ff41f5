package httpd

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
	"time"

	"sweb/internal/httpmsg"
	"sweb/internal/storage"
)

// TestReplicaKeepsSourceLastModified: a materialized replica carries its
// source's modification time, so a client revalidating with the date the
// primary gave it gets a 304 from the replica rather than the full body
// again, and peers relaying from either copy cache the same date. The copy
// lands whole under its own name, leaving nothing else in the directory.
func TestReplicaKeepsSourceLastModified(t *testing.T) {
	checkNoLeaks(t)
	const doc = "/docs/rep.bin"
	replica, primary := startPair(t, nil, storage.File{Path: doc, Size: 8 << 10, Owner: 1})
	src := docFile(primary, doc)
	mod := time.Now().Add(-time.Hour)
	if err := os.Chtimes(src, mod, mod); err != nil {
		t.Fatal(err)
	}
	lm := getWith(t, primary.Addr(), doc, nil).Header.Get("Last-Modified")
	if lm == "" {
		t.Fatal("primary sent no Last-Modified")
	}

	if err := replica.MaterializeReplica(doc); err != nil {
		t.Fatal(err)
	}
	full := docFile(replica, doc)
	fi, err := os.Stat(full)
	if err != nil {
		t.Fatal(err)
	}
	if fi.ModTime().Unix() != mod.Unix() {
		t.Errorf("replica mtime %v, source %v: they must agree to the second", fi.ModTime(), mod)
	}
	if fi.Mode().Perm() != 0o644 {
		t.Errorf("replica mode %v, want 0644", fi.Mode().Perm())
	}
	want, _ := os.ReadFile(src)
	if got, _ := os.ReadFile(full); !bytes.Equal(got, want) {
		t.Fatal("replica bytes differ from the source's")
	}
	if ents, _ := os.ReadDir(filepath.Dir(full)); len(ents) != 1 {
		t.Errorf("replica directory holds %d entries, want only the document", len(ents))
	}

	resp := getWith(t, replica.Addr(), doc, map[string]string{"If-Modified-Since": lm})
	if resp.StatusCode != httpmsg.StatusNotModified {
		t.Fatalf("conditional GET at the replica with the primary's date = %d, want 304", resp.StatusCode)
	}
}
