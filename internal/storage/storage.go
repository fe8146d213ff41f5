// Package storage models SWEB's distributed file layout: every document
// lives on one or more nodes' dedicated local disks and is visible to all
// other nodes through NFS cross-mounts. The broker consults the ownership
// map ("determines the server on whose local disk the file resides") and a
// remote fetch pays the interconnect instead of the local disk channel.
// Documents may carry an R-way replica set: the owner is the primary
// replica, extra replicas are full copies on other nodes' disks, and the
// rebalance controller mutates the set at runtime — so the Store is
// guarded by a lock: brokers read it on every request while the
// controller adds and drains replicas underneath them.
package storage

import (
	"fmt"
	"sort"
	"sync"
)

// File describes one served document.
type File struct {
	// Path is the URL path, e.g. "/maps/goleta.gif".
	Path string
	// Size is the response body size in bytes.
	Size int64
	// Owner is the node whose local disk holds the primary copy.
	Owner int
	// Replicas is the full ordered replica set, Replicas[0] == Owner.
	// A nil slice means the single-owner layout (R=1); ReplicaSet
	// normalizes the two forms.
	Replicas []int
	// CGI marks an executable resource; CGIOps is its computational demand
	// in CPU operations (estimated by the oracle's user-supplied table).
	CGI    bool
	CGIOps float64
}

// ReplicaSet returns the ordered replica node list, never empty: the
// primary owner first, then the extra replicas. The returned slice must
// not be mutated.
func (f File) ReplicaSet() []int {
	if len(f.Replicas) == 0 {
		return []int{f.Owner}
	}
	return f.Replicas
}

// HasReplica reports whether node holds a local copy of the file.
func (f File) HasReplica(node int) bool {
	if len(f.Replicas) == 0 {
		return node == f.Owner
	}
	for _, r := range f.Replicas {
		if r == node {
			return true
		}
	}
	return false
}

// Store is the cluster-wide document layout.
type Store struct {
	mu      sync.RWMutex
	nodes   int
	files   map[string]*File
	byOwner [][]string // owner -> paths (primary copies only)
	total   int64      // total corpus bytes (primary copies)
}

// NewStore creates an empty layout for a cluster of n nodes.
func NewStore(n int) *Store {
	if n <= 0 {
		panic("storage: store needs at least one node")
	}
	return &Store{
		nodes:   n,
		files:   make(map[string]*File),
		byOwner: make([][]string, n),
	}
}

// Nodes returns the cluster size the layout was built for.
func (s *Store) Nodes() int { return s.nodes }

// Len returns the number of files.
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.files)
}

// TotalBytes returns the corpus size (each document counted once).
func (s *Store) TotalBytes() int64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.total
}

// normalizeReplicas validates f's replica set and returns it in canonical
// form: nil for R=1, otherwise a copy with Replicas[0] == Owner.
func (s *Store) normalizeReplicas(f File) ([]int, error) {
	if len(f.Replicas) == 0 {
		return nil, nil
	}
	if f.Replicas[0] != f.Owner {
		return nil, fmt.Errorf("storage: %s: replica set %v must start with owner %d", f.Path, f.Replicas, f.Owner)
	}
	seen := make(map[int]bool, len(f.Replicas))
	for _, r := range f.Replicas {
		if r < 0 || r >= s.nodes {
			return nil, fmt.Errorf("storage: %s: replica %d out of range [0,%d)", f.Path, r, s.nodes)
		}
		if seen[r] {
			return nil, fmt.Errorf("storage: %s: duplicate replica %d", f.Path, r)
		}
		seen[r] = true
	}
	if len(f.Replicas) == 1 {
		return nil, nil
	}
	return append([]int(nil), f.Replicas...), nil
}

// Add registers a file. Adding a duplicate path, an out-of-range owner, or
// a malformed replica set (duplicates, replicas not led by the owner) is
// an error.
func (s *Store) Add(f File) error {
	if f.Path == "" {
		return fmt.Errorf("storage: empty path")
	}
	if f.Size < 0 {
		return fmt.Errorf("storage: %s: negative size", f.Path)
	}
	if f.Owner < 0 || f.Owner >= s.nodes {
		return fmt.Errorf("storage: %s: owner %d out of range [0,%d)", f.Path, f.Owner, s.nodes)
	}
	reps, err := s.normalizeReplicas(f)
	if err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, dup := s.files[f.Path]; dup {
		return fmt.Errorf("storage: %s: duplicate path", f.Path)
	}
	cp := f
	cp.Replicas = reps
	s.files[f.Path] = &cp
	s.byOwner[f.Owner] = append(s.byOwner[f.Owner], f.Path)
	s.total += f.Size
	return nil
}

// MustAdd is Add that panics on error, for test and generator code.
func (s *Store) MustAdd(f File) {
	if err := s.Add(f); err != nil {
		panic(err)
	}
}

// AddReplica extends path's replica set with node — the rebalance
// controller's "re-replicate" mutation. Adding a node that already holds
// a replica is a no-op (every node applies the same manifest broadcast,
// so the mutation must be idempotent).
func (s *Store) AddReplica(path string, node int) error {
	if node < 0 || node >= s.nodes {
		return fmt.Errorf("storage: %s: replica %d out of range [0,%d)", path, node, s.nodes)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	f, ok := s.files[path]
	if !ok {
		return fmt.Errorf("storage: %s: no such file", path)
	}
	if f.HasReplica(node) {
		return nil
	}
	if len(f.Replicas) == 0 {
		f.Replicas = []int{f.Owner}
	}
	f.Replicas = append(f.Replicas, node)
	return nil
}

// DropReplica removes node from path's replica set — the "drain"
// mutation. The primary owner cannot be drained; dropping a node that
// holds no replica is a no-op.
func (s *Store) DropReplica(path string, node int) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	f, ok := s.files[path]
	if !ok {
		return fmt.Errorf("storage: %s: no such file", path)
	}
	if node == f.Owner {
		return fmt.Errorf("storage: %s: cannot drop primary replica %d", path, node)
	}
	if len(f.Replicas) == 0 {
		return nil
	}
	// Copy-on-write: Lookup hands out the old slice to concurrent readers,
	// so the mutation must build a fresh backing array.
	out := make([]int, 0, len(f.Replicas))
	for _, r := range f.Replicas {
		if r != node {
			out = append(out, r)
		}
	}
	if len(out) == 1 {
		out = nil
	}
	f.Replicas = out
	return nil
}

// Lookup returns the file metadata for path. The returned File's replica
// slice is shared and must not be mutated (use AddReplica/DropReplica).
func (s *Store) Lookup(path string) (File, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	f, ok := s.files[path]
	if !ok {
		return File{}, false
	}
	return *f, true
}

// Intern returns the manifest's own string for the path spelled by p, if
// the manifest lists it: a request parser keeps that string instead of
// copying p, so nothing kept from the request aliases its read buffer. p
// is not retained.
func (s *Store) Intern(p []byte) (string, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	f, ok := s.files[string(p)]
	if !ok {
		return "", false
	}
	return f.Path, true
}

// Owner returns the primary owning node for path.
func (s *Store) Owner(path string) (int, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	f, ok := s.files[path]
	if !ok {
		return 0, false
	}
	return f.Owner, true
}

// Replicas returns path's full replica node list (primary first), nil when
// the path is unknown.
func (s *Store) Replicas(path string) []int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	f, ok := s.files[path]
	if !ok {
		return nil
	}
	return append([]int(nil), f.ReplicaSet()...)
}

// OwnedBy returns the sorted list of paths whose primary copy node holds.
func (s *Store) OwnedBy(node int) []string {
	if node < 0 || node >= s.nodes {
		return nil
	}
	s.mu.RLock()
	out := append([]string(nil), s.byOwner[node]...)
	s.mu.RUnlock()
	sort.Strings(out)
	return out
}

// ReplicatedOn returns the sorted list of paths with any replica (primary
// included) on node.
func (s *Store) ReplicatedOn(node int) []string {
	if node < 0 || node >= s.nodes {
		return nil
	}
	s.mu.RLock()
	var out []string
	for p, f := range s.files {
		if f.HasReplica(node) {
			out = append(out, p)
		}
	}
	s.mu.RUnlock()
	sort.Strings(out)
	return out
}

// Paths returns every path in sorted order.
func (s *Store) Paths() []string {
	s.mu.RLock()
	out := make([]string, 0, len(s.files))
	for p := range s.files {
		out = append(out, p)
	}
	s.mu.RUnlock()
	sort.Strings(out)
	return out
}

// BytesByOwner returns the per-node primary-copy bytes, useful for
// checking placement balance.
func (s *Store) BytesByOwner() []int64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]int64, s.nodes)
	for _, f := range s.files {
		out[f.Owner] += f.Size
	}
	return out
}
