// Package rebalance turns the placement advisor's report-only output
// (heat.Advise) into replica-set actions: replicate a hot document onto
// the non-owner node already landing most of its traffic, and drain
// surplus replicas once a document cools. The controller is substrate
// independent — it reads a merged heat view and the shared document map
// and emits Actions; the caller (a live cluster goroutine, the swebd
// -rebalance leader, or a DES periodic hook) actually moves the bytes.
//
// Stability comes from three guards: a document must stay hot (or cool)
// for ForTicks consecutive observations before the controller acts
// (hysteresis against one-burst noise), each tick replicates at most
// BudgetPerTick documents (the interconnect also carries client bytes),
// and a freshly changed path sits out CooldownTicks before the next
// action (the heat window must refill with post-change landings before
// it can be judged again).
package rebalance

import (
	"sort"

	"sweb/internal/heat"
	"sweb/internal/storage"
)

// Config tunes the controller. The zero value is unusable; use Defaults.
type Config struct {
	// MaxReplicas caps a document's replica-set size (R).
	MaxReplicas int
	// BudgetPerTick caps replications per tick; drops are free (they
	// move no bytes) and are not counted against it.
	BudgetPerTick int
	// HotShare is the cluster-request share above which a document is
	// replication-worthy.
	HotShare float64
	// CoolShare is the share below which a surplus replica drains.
	// Must sit well under HotShare or the controller oscillates.
	CoolShare float64
	// ForTicks is how many consecutive hot (cool) observations arm an
	// add (drop).
	ForTicks int
	// CooldownTicks is how long a just-changed path is exempt from
	// further actions.
	CooldownTicks int
}

// Defaults act on a document drawing over half the cluster's requests,
// drain when it falls under a fifth, two confirming ticks each way, one
// replication per tick.
func Defaults() Config {
	return Config{
		MaxReplicas:   2,
		BudgetPerTick: 1,
		HotShare:      0.5,
		CoolShare:     0.2,
		ForTicks:      2,
		CooldownTicks: 2,
	}
}

// Action is one replica-set change the controller wants made.
type Action struct {
	// Kind is "add" or "drop".
	Kind string `json:"kind"`
	// Path is the document.
	Path string `json:"path"`
	// Node gains (add) or loses (drop) the replica.
	Node int `json:"node"`
	// Predicted is the advisor's predicted cluster-work reduction for
	// an add (0 for drops) — recorded so the redistribution test can
	// hold the forecast against the observed relay-rate drop.
	Predicted float64 `json:"predicted"`
}

// Controller applies hysteresis across ticks. Not safe for concurrent
// use; each deployment runs exactly one.
type Controller struct {
	cfg      Config
	hotFor   map[string]int // consecutive ticks at or above HotShare
	coolFor  map[string]int // consecutive ticks at or below CoolShare
	cooldown map[string]int // ticks left before the path may change again
}

// New builds a controller, normalizing nonsensical config to Defaults
// field by field.
func New(cfg Config) *Controller {
	def := Defaults()
	if cfg.MaxReplicas < 1 {
		cfg.MaxReplicas = def.MaxReplicas
	}
	if cfg.BudgetPerTick < 1 {
		cfg.BudgetPerTick = def.BudgetPerTick
	}
	if cfg.HotShare <= 0 || cfg.HotShare > 1 {
		cfg.HotShare = def.HotShare
	}
	if cfg.CoolShare < 0 || cfg.CoolShare >= cfg.HotShare {
		cfg.CoolShare = def.CoolShare
		if cfg.CoolShare >= cfg.HotShare {
			cfg.CoolShare = cfg.HotShare / 2
		}
	}
	if cfg.ForTicks < 1 {
		cfg.ForTicks = def.ForTicks
	}
	if cfg.CooldownTicks < 0 {
		cfg.CooldownTicks = def.CooldownTicks
	}
	return &Controller{
		cfg:      cfg,
		hotFor:   make(map[string]int),
		coolFor:  make(map[string]int),
		cooldown: make(map[string]int),
	}
}

// Tick consumes one merged heat view and returns the actions to take
// now, adds before drops, adds ordered by predicted reduction. up
// reports whether a node can receive a replica right now (nil: all up);
// store supplies the current replica sets and is not mutated here.
func (c *Controller) Tick(m heat.Merged, store *storage.Store, up func(int) bool) []Action {
	for p, left := range c.cooldown {
		if left <= 1 {
			delete(c.cooldown, p)
		} else {
			c.cooldown[p] = left - 1
		}
	}
	seen := make(map[string]bool)
	var adds, drops []Action
	for _, a := range heat.Advise(m) {
		seen[a.Path] = true
		f, ok := store.Lookup(a.Path)
		if !ok || f.CGI {
			continue
		}
		switch {
		case a.Share >= c.cfg.HotShare:
			c.hotFor[a.Path]++
			delete(c.coolFor, a.Path)
		case a.Share <= c.cfg.CoolShare:
			c.coolFor[a.Path]++
			delete(c.hotFor, a.Path)
		default:
			delete(c.hotFor, a.Path)
			delete(c.coolFor, a.Path)
		}
		if c.cooldown[a.Path] > 0 {
			continue
		}
		reps := f.ReplicaSet()
		if c.hotFor[a.Path] >= c.cfg.ForTicks && len(reps) < c.cfg.MaxReplicas {
			node := a.ReplicaNode
			if node < 0 || f.HasReplica(node) || (up != nil && !up(node)) {
				// The advisor's pick is unusable; fall back to the
				// heaviest usable landing node from the merged view.
				node = heaviestCandidate(m, a.Path, f, up)
			}
			if node >= 0 {
				adds = append(adds, Action{Kind: "add", Path: a.Path, Node: node, Predicted: a.PredictedReduction})
			}
		}
		if c.coolFor[a.Path] >= c.cfg.ForTicks && len(reps) > 1 {
			// Drain the last-added replica (set order is owner-first,
			// additions append), keeping the primary untouchable.
			drops = append(drops, Action{Kind: "drop", Path: a.Path, Node: reps[len(reps)-1]})
		}
	}
	// A path that fell out of the advisor's view entirely has gone cold:
	// its streaks reset, so a later reappearance starts from zero.
	for p := range c.hotFor {
		if !seen[p] {
			delete(c.hotFor, p)
		}
	}
	for p := range c.coolFor {
		if !seen[p] {
			delete(c.coolFor, p)
		}
	}
	sort.SliceStable(adds, func(i, j int) bool { return adds[i].Predicted > adds[j].Predicted })
	if len(adds) > c.cfg.BudgetPerTick {
		adds = adds[:c.cfg.BudgetPerTick]
	}
	out := append(adds, drops...)
	for _, act := range out {
		c.cooldown[act.Path] = c.cfg.CooldownTicks
		delete(c.hotFor, act.Path)
		delete(c.coolFor, act.Path)
	}
	return out
}

// heaviestCandidate scans the merged per-node landings for the busiest
// node that could hold a new replica of path.
func heaviestCandidate(m heat.Merged, path string, f storage.File, up func(int) bool) int {
	for _, e := range m.Entries {
		if e.Path != path {
			continue
		}
		best, bestCount := -1, uint64(0)
		for node, cnt := range e.ByNode {
			if f.HasReplica(node) || (up != nil && !up(node)) {
				continue
			}
			if cnt > bestCount || (cnt == bestCount && best >= 0 && node < best) {
				best, bestCount = node, cnt
			}
		}
		return best
	}
	return -1
}
