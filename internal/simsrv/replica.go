package simsrv

import (
	"sweb/internal/des"
	"sweb/internal/rebalance"
)

// Replicate materializes a copy of path on node dst at the current
// simulation time: the cheapest live replica's disk reads the document
// chunk by chunk, each chunk crosses the interconnect, and only when the
// last byte lands does the shared store gain the replica — the DES
// analogue of the live rebalancer's internal fetch into a peer docroot.
// done, when non-nil, fires with whether the replica was created.
func (c *Cluster) Replicate(path string, dst int, done func(bool)) {
	finish := func(ok bool) {
		if done != nil {
			done(ok)
		}
	}
	f, ok := c.cfg.Store.Lookup(path)
	if !ok || f.CGI || dst < 0 || dst >= len(c.nodes) || f.HasReplica(dst) || !c.up[dst] {
		finish(false)
		return
	}
	src := -1
	for _, rep := range f.ReplicaSet() {
		if c.up[rep] {
			src = rep
			break
		}
	}
	if src < 0 {
		finish(false)
		return
	}
	srcNode, dstNode := c.nodes[src], c.nodes[dst]
	dstNode.Pin(f.Size)
	commit := func() {
		dstNode.Unpin(f.Size)
		err := c.cfg.Store.AddReplica(path, dst)
		if err == nil {
			dstNode.Cache.Insert(f.Path, f.Size, struct{}{})
			c.obs[dst].RebalanceAction("add")
		}
		finish(err == nil)
	}
	if f.Size == 0 {
		commit()
		return
	}
	var pump func(off int64)
	pump = func(off int64) {
		chunk, last := c.chunkAt(off, f.Size)
		srcNode.DiskReads++
		srcNode.DiskBytes += chunk
		srcNode.Disk.Submit(float64(chunk), func() {
			c.net.InternalTransfer(src, dst, chunk, func() {
				if last {
					commit()
					return
				}
				pump(off + chunk)
			})
		})
	}
	pump(0)
}

// DropReplica retires node dst's copy of path from the shared store (the
// primary is refused, exactly as in storage.Store). The page-cache entry
// is left to age out on its own, as a real unlink would.
func (c *Cluster) DropReplica(path string, dst int) error {
	if err := c.cfg.Store.DropReplica(path, dst); err != nil {
		return err
	}
	c.obs[dst].RebalanceAction("drop")
	return nil
}

// StartRebalancer installs the heat-driven replica rebalancer as a DES
// periodic event, mirroring the live cluster's loop: each period the
// controller reads the merged heat view and the resulting adds run as
// simulated transfers (disk reads, interconnect chunks, then the store
// update) while drops take effect immediately. Applied actions append to
// the returned slice as the simulation runs — adds are recorded when
// their transfer completes.
func (c *Cluster) StartRebalancer(cfg rebalance.Config, period des.Time) *[]rebalance.Action {
	ctrl := rebalance.New(cfg)
	applied := &[]rebalance.Action{}
	up := func(n int) bool { return n >= 0 && n < len(c.nodes) && c.up[n] }
	c.Every(period, func() {
		for _, act := range ctrl.Tick(c.MergedHeat(), c.cfg.Store, up) {
			act := act
			switch act.Kind {
			case "add":
				c.Replicate(act.Path, act.Node, func(ok bool) {
					if ok {
						*applied = append(*applied, act)
					}
				})
			case "drop":
				if c.DropReplica(act.Path, act.Node) == nil {
					*applied = append(*applied, act)
				}
			}
		}
	})
	return applied
}
