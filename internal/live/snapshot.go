package live

import (
	"errors"
	"strconv"

	"sweb/internal/flight"
)

// WriteSnapshot captures a cross-node diagnostic bundle: every live
// node's metrics, status, trace tail, flight rings, and conn table,
// gathered in-process, plus the shared process profiles, written as one
// timestamped directory under the cluster's snapshot dir. Dead nodes are
// recorded as holes (an error entry), which is itself evidence.
func (c *Cluster) WriteSnapshot(reason string) (string, error) {
	if c.snapshotDir == "" {
		return "", errors.New("live: no snapshot directory configured")
	}
	var states []flight.NodeState
	for i, srv := range c.Servers {
		if srv == nil || srv.Closed() {
			states = append(states, flight.NodeState{
				Name: "node" + strconv.Itoa(i), Err: "node down",
			})
			continue
		}
		states = append(states, srv.SnapshotState())
	}
	c.snapMu.Lock()
	defer c.snapMu.Unlock()
	dir, err := flight.Snapshot(flight.SnapshotOptions{Dir: c.snapshotDir, Reason: reason}, states)
	if err != nil {
		return "", err
	}
	c.bundles = append(c.bundles, dir)
	return dir, nil
}

// Bundles lists the snapshot bundles this cluster has written, in order.
func (c *Cluster) Bundles() []string {
	c.snapMu.Lock()
	defer c.snapMu.Unlock()
	return append([]string(nil), c.bundles...)
}
