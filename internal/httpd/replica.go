package httpd

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"sweb/internal/cache"
	"sweb/internal/httpmsg"
)

// Live replica actuation: the rebalancer (in-process controller or the
// swebd -rebalance leader) drives replica-set changes through these two
// mutations plus the /sweb/replicate endpoint. The order is
// materialize-then-announce — the document's bytes land in the docroot
// before the store learns about the replica — so a broker can never route
// an internal fetch at a copy that does not exist yet.

// MaterializeReplica makes this node a replica of path: the document is
// pulled from the cheapest live replica over the internal-fetch path
// (retry budget, health marking, and failover included), written into the
// docroot, and only then recorded in the store. Idempotent: a node that
// already holds the replica answers nil without touching the network.
func (s *Server) MaterializeReplica(path string) error {
	f := s.facts(path)
	if !f.Found {
		return fmt.Errorf("replicate: unknown document %q", path)
	}
	if f.CGI {
		return fmt.Errorf("replicate: %q is a CGI endpoint, not a document", path)
	}
	if f.HasReplica(s.cfg.ID) {
		return nil
	}
	sources := s.rankedSources(&f, nil)
	if len(sources) == 0 {
		return fmt.Errorf("replicate: no reachable replica of %q", path)
	}
	ent, err := refill(sources, nil, func() (cache.Entry, error) {
		return s.fill(sources, path, f.Size, "", nil)
	})
	if err != nil {
		return fmt.Errorf("replicate: fetch %q: %w", path, err)
	}
	defer s.cache.Release(ent)
	full := s.localPath(path)
	if err := os.MkdirAll(filepath.Dir(full), 0o755); err != nil {
		return fmt.Errorf("replicate: %w", err)
	}
	if err := writeReplicaFile(full, ent.Body, ent.ModTime); err != nil {
		return fmt.Errorf("replicate: %w", err)
	}
	if err := s.cfg.Store.AddReplica(path, s.cfg.ID); err != nil {
		return fmt.Errorf("replicate: %w", err)
	}
	s.obs.RebalanceAction("add")
	return nil
}

// writeReplicaFile lands a replica's bytes at full: a synced temp file in
// the same directory, stamped with the source's Last-Modified (zero leaves
// the copy time), then renamed over the path. The docroot never holds a
// partial copy, and the replica revalidates — and is relayed to peers, which
// get docroot files as they are — with the same date as its source.
func writeReplicaFile(full string, body []byte, modTime time.Time) error {
	tmp, err := os.CreateTemp(filepath.Dir(full), "."+filepath.Base(full)+".*")
	if err != nil {
		return err
	}
	name := tmp.Name()
	_, err = tmp.Write(body)
	if err == nil {
		err = tmp.Chmod(0o644)
	}
	if err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil && !modTime.IsZero() {
		err = os.Chtimes(name, modTime, modTime)
	}
	if err == nil {
		err = os.Rename(name, full)
	}
	if err != nil {
		_ = os.Remove(name)
	}
	return err
}

// DropReplicaLocal retires this node's replica of path: the store forgets
// it first — new requests route elsewhere — then the docroot copy and any
// cached entry go. Dropping the primary is refused by the store.
func (s *Server) DropReplicaLocal(path string) error {
	if err := s.cfg.Store.DropReplica(path, s.cfg.ID); err != nil {
		return err
	}
	if s.cache != nil {
		s.cache.Invalidate(path)
	}
	if err := os.Remove(s.localPath(path)); err != nil && !os.IsNotExist(err) {
		return err
	}
	s.obs.RebalanceAction("drop")
	return nil
}

// queryParam extracts one key's first value from a raw query string (""
// when absent), through the walker the sweb markers use.
func queryParam(query, key string) (value string) {
	eachParam(query, func(pair string) bool {
		v, ok := strings.CutPrefix(pair, key+"=")
		if ok {
			value = v
		}
		return !ok
	})
	return value
}

// replicate answers /sweb/replicate?path=P&node=N&action=add|drop — the
// control-plane verb the rebalancer speaks. The addressed node materializes
// or retires its own copy; every other node just updates its ownership map,
// so a deployment without a shared store converges when the rebalancer
// broadcasts the same call to each member. The answer reports the resulting
// replica set.
func (s *Server) replicate(req *httpmsg.Request) (int, string, []byte) {
	path, perr := httpmsg.DecodePath(queryParam(req.Query, "path"))
	if perr != nil {
		return errorPage(httpmsg.StatusBadRequest, "bad path parameter")
	}
	node, err := strconv.Atoi(queryParam(req.Query, "node"))
	if err != nil {
		return errorPage(httpmsg.StatusBadRequest, "bad or missing node parameter")
	}
	action := queryParam(req.Query, "action")
	if _, ok := s.cfg.Store.Lookup(path); !ok {
		return errorPage(httpmsg.StatusNotFound, "unknown document")
	}
	switch {
	case action == "add" && node == s.cfg.ID:
		err = s.MaterializeReplica(path)
	case action == "drop" && node == s.cfg.ID:
		err = s.DropReplicaLocal(path)
	case action == "add":
		// Another node holds the bytes (or is fetching them); this node
		// only needs the routing fact. AddReplica is idempotent, so the
		// shared-store deployments of internal/live no-op here.
		err = s.cfg.Store.AddReplica(path, node)
	case action == "drop":
		err = s.cfg.Store.DropReplica(path, node)
	default:
		return errorPage(httpmsg.StatusBadRequest, "action must be add or drop")
	}
	if err != nil {
		return errorPage(httpmsg.StatusInternalServerError, err.Error())
	}
	b, _ := json.Marshal(map[string]any{
		"path":     path,
		"node":     node,
		"action":   action,
		"replicas": s.cfg.Store.Replicas(path),
	})
	return httpmsg.StatusOK, "application/json", append(b, '\n')
}
