// Package sweb is a full reproduction of "SWEB: Towards a Scalable World
// Wide Web Server on Multicomputers" (Andresen, Yang, Holmedahl, Ibarra —
// IPPS 1996): a distributed WWW server whose nodes cooperate through a
// multi-faceted scheduler that weighs CPU, disk, and interconnect load to
// serve or redirect each request for minimum estimated completion time.
//
// The package offers three layers:
//
//   - The scheduling core (Scheduler, Params, Request, NodeLoad): the
//     paper's cost model t_s = t_redirection + t_data + t_CPU + t_net and
//     the baseline policies it is evaluated against.
//
//   - A simulated multicomputer (SimConfig, NewSimCluster, MeikoSim,
//     NOWSim): a deterministic discrete-event model of the Meiko CS-2 and
//     the SparcStation NOW used to regenerate every table and figure in the
//     paper's evaluation (see the Table1..Overhead functions).
//
//   - A live cluster (LiveOptions, StartLive): real HTTP/1.0 servers over
//     TCP with UDP loadd gossip and 302 redirection, run in-process.
//
// Quickstart:
//
//	st := sweb.NewStore(4)
//	paths := sweb.UniformSet(st, 16, 64<<10)
//	cl, _ := sweb.StartLive(sweb.LiveOptions{Nodes: 4, Store: st, BaseDir: dir})
//	defer cl.Close()
//	res, _ := cl.NewClient().Get(paths[0])
package sweb

import (
	"sweb/internal/accesslog"
	"sweb/internal/analytic"
	"sweb/internal/core"
	"sweb/internal/experiments"
	"sweb/internal/heat"
	"sweb/internal/live"
	"sweb/internal/simsrv"
	"sweb/internal/stats"
	"sweb/internal/storage"
	"sweb/internal/trace"
	"sweb/internal/workload"
)

// --- Scheduling core -----------------------------------------------------

// Scheduler is the paper's multi-faceted scheduler.
type Scheduler = core.SWEB

// Params are the scheduler tunables (Δ bump, redirect costs, facet
// toggles).
type Params = core.Params

// Request is the broker's view of a preprocessed HTTP request.
type Request = core.Request

// NodeLoad is one row of the broker's load table.
type NodeLoad = core.NodeLoad

// Decision is a scheduling outcome.
type Decision = core.Decision

// Policy is any placement policy (SWEB, round robin, file locality, ...).
type Policy = core.Policy

// Baseline policies from the paper's comparison (Sec. 4.2).
type (
	// RoundRobin serves every request where DNS delivered it.
	RoundRobin = core.RoundRobin
	// FileLocality always serves at the owning node.
	FileLocality = core.FileLocality
	// CPUOnly is the single-faceted load balancer.
	CPUOnly = core.CPUOnly
)

// NewScheduler builds the SWEB policy with the given parameters.
func NewScheduler(p Params) *Scheduler { return core.NewSWEB(p) }

// DefaultParams returns the paper's calibration (Δ=30%, one redirect max,
// 4 ms redirect cost, all facets on).
func DefaultParams() Params { return core.DefaultParams() }

// --- Documents -----------------------------------------------------------

// Store is the cluster-wide document-ownership map.
type Store = storage.Store

// File describes one served document.
type File = storage.File

// NewStore creates an empty layout for n nodes.
func NewStore(n int) *Store { return storage.NewStore(n) }

// Corpus generators used throughout the evaluation.
var (
	// UniformSet: count equal-size files placed round-robin.
	UniformSet = storage.UniformSet
	// NonUniformSet: sizes uniform in [min,max], placed round-robin.
	NonUniformSet = storage.NonUniformSet
	// CollectionSet: one size-banded collection per node's disk.
	CollectionSet = storage.CollectionSet
	// SkewedSet: a single hot file on node 0.
	SkewedSet = storage.SkewedSet
	// ADLSet: an Alexandria-Digital-Library-style corpus.
	ADLSet = storage.ADLSet
	// AddCGISet: dynamic endpoints with a fixed compute demand.
	AddCGISet = storage.AddCGISet
)

// --- Simulated multicomputer ----------------------------------------------

// SimConfig configures a simulated cluster.
type SimConfig = simsrv.Config

// SimCluster is a simulated SWEB deployment.
type SimCluster = simsrv.Cluster

// RunResult aggregates one experiment run.
type RunResult = stats.RunResult

// Simulated policy and interconnect names.
const (
	PolicySWEB         = simsrv.PolicySWEB
	PolicyRoundRobin   = simsrv.PolicyRoundRobin
	PolicyFileLocality = simsrv.PolicyFileLocality
	PolicyCPUOnly      = simsrv.PolicyCPUOnly

	NetMeiko = simsrv.NetMeiko
	NetNOW   = simsrv.NetNOW
)

// NewSimCluster builds a simulated cluster.
func NewSimCluster(cfg SimConfig) (*SimCluster, error) { return simsrv.New(cfg) }

// MeikoSim returns the calibrated Meiko CS-2 configuration for n nodes.
func MeikoSim(n int, st *Store) SimConfig { return simsrv.MeikoConfig(n, st) }

// NOWSim returns the calibrated SparcStation-NOW configuration.
func NOWSim(n int, st *Store) SimConfig { return simsrv.NOWConfig(n, st) }

// --- Workloads -------------------------------------------------------------

// Burst is the paper's test shape: RPS requests launched each second.
type Burst = workload.Burst

// Arrival is one scheduled request.
type Arrival = workload.Arrival

// Picker chooses request paths.
type Picker = workload.Picker

// Path pickers.
var (
	UniformPicker    = workload.UniformPicker
	RoundRobinPicker = workload.RoundRobinPicker
	ZipfPicker       = workload.ZipfPicker
	SinglePicker     = workload.SinglePicker
	WeightedPicker   = workload.WeightedPicker
)

// --- Live cluster ----------------------------------------------------------

// LiveOptions configures a live (real TCP/UDP) cluster.
type LiveOptions = live.Options

// LiveCluster is a running live deployment.
type LiveCluster = live.Cluster

// LiveResult is one live fetch outcome.
type LiveResult = live.Result

// StartLive materializes docroots and starts n real httpd nodes.
func StartLive(o LiveOptions) (*LiveCluster, error) { return live.Start(o) }

// --- Document heat -----------------------------------------------------------

// HeatDump is one node's document-heat sketch contents (see /sweb/heat).
type HeatDump = heat.Dump

// MergedHeat is the cluster-wide per-document view summed across nodes.
type MergedHeat = heat.Merged

// PlacementAdvice is one report-only replication recommendation.
type PlacementAdvice = heat.Advice

var (
	// MergeHeat sums per-node heat dumps into the cluster view.
	MergeHeat = heat.Merge
	// AdviseHeat ranks hot documents and prices an extra replica.
	AdviseHeat = heat.Advise
	// RenderHeat / RenderHeatAdvice draw the heat and advisor tables.
	RenderHeat       = heat.Render
	RenderHeatAdvice = heat.RenderAdvice
)

// --- Analysis & experiments -------------------------------------------------

// AnalyticModel is the Section 3.3 closed-form throughput bound.
type AnalyticModel = analytic.Model

// ExperimentOptions scale the table regenerators.
type ExperimentOptions = experiments.Options

// Table regenerators: each returns structured rows plus a rendered
// paper-style table.
var (
	Table1           = experiments.Table1
	Table2           = experiments.Table2
	Table3           = experiments.Table3
	Table4           = experiments.Table4
	Table5           = experiments.Table5
	SkewedTest       = experiments.Skewed
	Overhead         = experiments.Overhead
	AnalyticTable    = experiments.Analytic
	AblationDelta    = experiments.AblationDelta
	AblationDNSCache = experiments.AblationDNSCache
	AblationFacets   = experiments.AblationFacets
	AblationPingPong = experiments.AblationPingPong
	Heterogeneous    = experiments.Heterogeneous
	Forwarding       = experiments.Forwarding
	Centralized      = experiments.Centralized
	CentralSPOF      = experiments.CentralSPOF
	GossipLoss       = experiments.GossipLoss
	ScalabilityCurve = experiments.ScalabilityCurve
	Throughput       = experiments.Throughput
	CoopCache        = experiments.CoopCache
	EastCoast        = experiments.EastCoast
)

// --- Tracing & access logs ---------------------------------------------------

// TraceRecorder captures per-request lifecycle events (Figure 1).
type TraceRecorder = trace.Recorder

// NewTraceRecorder builds a recorder capturing up to limit events
// (<=0 for the default cap).
func NewTraceRecorder(limit int) *TraceRecorder { return trace.NewRecorder(limit) }

// TraceCollector stitches per-node event streams into end-to-end spans.
type TraceCollector = trace.Collector

// NewTraceCollector returns an empty collector; feed it each node's
// /sweb/trace dump (events + epoch) and read back cross-node spans.
func NewTraceCollector() *TraceCollector { return trace.NewCollector() }

// TraceSpan is one stitched end-to-end request.
type TraceSpan = trace.Span

// ExportChromeTrace writes spans as a Perfetto-loadable Chrome trace
// (chrome://tracing / ui.perfetto.dev): one track per node, flow arrows
// for cross-node hops.
var ExportChromeTrace = trace.ExportChrome

// AccessLogEntry is one NCSA Common Log Format record.
type AccessLogEntry = accesslog.Entry

// AccessLogger writes CLF lines; attach one to live nodes via
// httpd.Config.AccessLog.
type AccessLogger = accesslog.Logger

// NewAccessLogger wraps w with a concurrent CLF writer.
var NewAccessLogger = accesslog.NewLogger

// ParseAccessLog reads a whole CLF log.
var ParseAccessLog = accesslog.Parse

// FromAccessLog replays a parsed access log as a simulator workload.
var FromAccessLog = workload.FromAccessLog
