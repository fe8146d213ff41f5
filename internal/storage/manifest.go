package storage

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// Manifest format: the cluster-wide document map a SWEB deployment shares
// (the live daemons load it at startup; the simulator builds it in memory).
// One file per line:
//
//	# path size replicas [cgi <ops>]
//	/adl/meta/scene0001.html 2048 0
//	/docs/hot.dat 4096 0,2,3
//	/cgi-bin/query.cgi 512 3 cgi 4e7
//
// The third column is the replica set: a comma-separated node list whose
// first entry is the primary owner. A bare integer is the legacy
// single-owner form — old manifests parse unchanged as R=1, and R=1
// entries are written back in exactly that form, so a replica-free
// manifest round-trips byte-identically through a pre-replica reader.
// Lines are whitespace-separated; '#' starts a comment.

// maxNodes bounds the nodes directive: the store sizes per-node tables
// from it, so an absurd count must be an error, not an allocation.
const maxNodes = 1 << 16

// formatReplicas renders the replica column: the bare owner for R=1, the
// comma-joined set otherwise.
func formatReplicas(f File) string {
	reps := f.ReplicaSet()
	if len(reps) == 1 {
		return strconv.Itoa(reps[0])
	}
	parts := make([]string, len(reps))
	for i, r := range reps {
		parts[i] = strconv.Itoa(r)
	}
	return strings.Join(parts, ",")
}

// parseReplicas parses the replica column into (owner, replicas) where
// replicas is nil for the R=1 forms ("3" or a single-element list).
func parseReplicas(field string) (owner int, replicas []int, err error) {
	if !strings.Contains(field, ",") {
		owner, err = strconv.Atoi(field)
		return owner, nil, err
	}
	parts := strings.Split(field, ",")
	replicas = make([]int, len(parts))
	for i, p := range parts {
		n, perr := strconv.Atoi(p)
		if perr != nil {
			return 0, nil, perr
		}
		replicas[i] = n
	}
	owner = replicas[0]
	if len(replicas) == 1 {
		replicas = nil
	}
	return owner, replicas, nil
}

// WriteManifest serializes the store.
func WriteManifest(w io.Writer, s *Store) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "# SWEB document manifest: %d files on %d nodes\n", s.Len(), s.Nodes())
	fmt.Fprintf(bw, "nodes %d\n", s.Nodes())
	paths := s.Paths()
	sort.Strings(paths)
	for _, p := range paths {
		f, _ := s.Lookup(p)
		if f.CGI {
			fmt.Fprintf(bw, "%s %d %s cgi %g\n", f.Path, f.Size, formatReplicas(f), f.CGIOps)
		} else {
			fmt.Fprintf(bw, "%s %d %s\n", f.Path, f.Size, formatReplicas(f))
		}
	}
	return bw.Flush()
}

// ReadManifest parses a manifest into a new Store.
func ReadManifest(r io.Reader) (*Store, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 64<<10)
	var store *Store
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if fields[0] == "nodes" {
			if store != nil {
				return nil, fmt.Errorf("storage: line %d: duplicate nodes directive", lineNo)
			}
			if len(fields) != 2 {
				return nil, fmt.Errorf("storage: line %d: nodes needs a count", lineNo)
			}
			n, err := strconv.Atoi(fields[1])
			if err != nil || n <= 0 || n > maxNodes {
				return nil, fmt.Errorf("storage: line %d: bad node count %q", lineNo, fields[1])
			}
			store = NewStore(n)
			continue
		}
		if store == nil {
			return nil, fmt.Errorf("storage: line %d: file entry before nodes directive", lineNo)
		}
		if len(fields) < 3 {
			return nil, fmt.Errorf("storage: line %d: want 'path size replicas'", lineNo)
		}
		size, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("storage: line %d: bad size %q", lineNo, fields[1])
		}
		owner, replicas, err := parseReplicas(fields[2])
		if err != nil {
			return nil, fmt.Errorf("storage: line %d: bad replica set %q", lineNo, fields[2])
		}
		f := File{Path: fields[0], Size: size, Owner: owner, Replicas: replicas}
		if len(fields) >= 4 {
			if fields[3] != "cgi" || len(fields) != 5 {
				return nil, fmt.Errorf("storage: line %d: trailing fields must be 'cgi <ops>'", lineNo)
			}
			ops, err := strconv.ParseFloat(fields[4], 64)
			if err != nil || ops < 0 || math.IsNaN(ops) || math.IsInf(ops, 0) {
				return nil, fmt.Errorf("storage: line %d: bad cgi ops %q", lineNo, fields[4])
			}
			f.CGI = true
			f.CGIOps = ops
		}
		if err := store.Add(f); err != nil {
			return nil, fmt.Errorf("storage: line %d: %v", lineNo, err)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("storage: %v", err)
	}
	if store == nil {
		return nil, fmt.Errorf("storage: empty manifest")
	}
	return store, nil
}
