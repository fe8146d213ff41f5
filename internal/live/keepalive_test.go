package live

import (
	"strings"
	"testing"
	"time"

	"sweb/internal/httpd"
	"sweb/internal/storage"
)

// TestClientKeepAliveReusesConnections: repeated fetches from one client
// against one node must ride a single TCP connection.
func TestClientKeepAliveReusesConnections(t *testing.T) {
	cl, paths := startCluster(t, 1, 2, 2048, "rr")
	client := cl.NewClient()
	defer client.Close()
	for i := 0; i < 5; i++ {
		res, err := client.Get(paths[i%len(paths)])
		if err != nil || res.Status != 200 {
			t.Fatalf("fetch %d: res=%+v err=%v", i, res, err)
		}
	}
	if got := cl.Servers[0].Stats().Accepted; got != 1 {
		t.Fatalf("accepted = %d connections for 5 keep-alive fetches, want 1", got)
	}
	// With keep-alive off the same pattern dials per request.
	client.SetKeepAlive(false)
	for i := 0; i < 2; i++ {
		if res, err := client.Get(paths[0]); err != nil || res.Status != 200 {
			t.Fatalf("one-shot fetch %d: res=%+v err=%v", i, res, err)
		}
	}
	if got := cl.Servers[0].Stats().Accepted; got != 3 {
		t.Fatalf("accepted = %d after two one-shot fetches, want 3", got)
	}
}

// TestKeepAliveOffOptionPropagates: a cluster started with KeepAliveOff
// closes every connection after one response, so each fetch is a new
// accept even from a keep-alive client.
func TestKeepAliveOffOptionPropagates(t *testing.T) {
	st := storage.NewStore(1)
	paths := storage.UniformSet(st, 2, 1024)
	cl, err := Start(Options{Nodes: 1, Store: st, BaseDir: t.TempDir(), Policy: "rr",
		Node: httpd.Config{KeepAliveOff: true},
		Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	client := cl.NewClient()
	defer client.Close()
	for i := 0; i < 3; i++ {
		if res, err := client.Get(paths[0]); err != nil || res.Status != 200 {
			t.Fatalf("fetch %d: res=%+v err=%v", i, res, err)
		}
	}
	if got := cl.Servers[0].Stats().Accepted; got != 3 {
		t.Fatalf("accepted = %d with KeepAliveOff, want 3", got)
	}
}

// TestClientFollowsEscapedRedirect: a document whose path needs
// percent-escaping, owned by the non-entry node under file-locality, comes
// back through a 302 whose Location carries the escaped path — and the
// client must decode it, re-issue, and land on the bytes.
func TestClientFollowsEscapedRedirect(t *testing.T) {
	const doc = "/spaced dir/a b.html"
	st := storage.NewStore(2)
	st.MustAdd(storage.File{Path: doc, Size: 4096, Owner: 1})
	st.MustAdd(storage.File{Path: "/plain.html", Size: 4096, Owner: 0})
	cl, err := Start(Options{Nodes: 2, Store: st, BaseDir: t.TempDir(), Policy: "fl", Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	waitKnown(t, []int{0}, cl, 2, 5*time.Second)

	client := cl.NewClient()
	defer client.Close()
	res, err := client.GetVia(0, doc)
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != 200 || len(res.Body) != 4096 {
		t.Fatalf("escaped-path fetch: status=%d len=%d", res.Status, len(res.Body))
	}
	if !res.Redirected {
		t.Fatal("file-locality fetch from the wrong node did not redirect")
	}
	if !strings.Contains(res.ServedBy, cl.Servers[1].Addr()) {
		t.Fatalf("served by %q, want owner %q", res.ServedBy, cl.Servers[1].Addr())
	}
}

// TestChaosOwnerDiesUnderKeepAliveClient: a client holding a keep-alive
// connection to the relay node keeps using it while the document's owner
// is killed. The relay's pooled upstream connection to the dead owner goes
// stale; the next relayed fetch must degrade to a 503 — on the same client
// connection — and locally-owned documents keep flowing.
func TestChaosOwnerDiesUnderKeepAliveClient(t *testing.T) {
	st := storage.NewStore(2)
	paths := storage.UniformSet(st, 4, 4096)
	cl, err := Start(Options{Nodes: 2, Store: st, BaseDir: t.TempDir(), Policy: "rr",
		Node: httpd.Config{
			CacheOff:      true,
			FetchAttempts: 1,
			FetchBackoff:  10 * time.Millisecond,
		},
		Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	var localDoc, remoteDoc string
	for _, p := range paths {
		if o, _ := st.Owner(p); o == 0 {
			localDoc = p
		} else {
			remoteDoc = p
		}
	}

	client := cl.NewClient()
	defer client.Close()
	// Warm the whole path: client conn to node 0, upstream conn to node 1.
	res, err := client.GetVia(0, remoteDoc)
	if err != nil || res.Status != 200 {
		t.Fatalf("warm relay: res=%+v err=%v", res, err)
	}

	if err := cl.Kill(1); err != nil {
		t.Fatal(err)
	}

	// The relay discovers its pooled upstream is dead and degrades.
	res, err = client.GetVia(0, remoteDoc)
	if err != nil {
		t.Fatalf("relayed fetch errored instead of degrading: %v", err)
	}
	if res.Status != 503 {
		t.Fatalf("relayed fetch with dead owner = %d, want 503", res.Status)
	}
	// Locally-owned documents still flow, and the client never re-dialed:
	// every request above shared one accepted connection on node 0.
	res, err = client.GetVia(0, localDoc)
	if err != nil || res.Status != 200 {
		t.Fatalf("local fetch after owner death: res=%+v err=%v", res, err)
	}
	if got := cl.Servers[0].Stats().Accepted; got != 1 {
		t.Fatalf("accepted = %d connections across the outage, want 1 (keep-alive held)", got)
	}
}
