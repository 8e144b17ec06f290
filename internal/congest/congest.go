// Package congest implements a round-synchronous simulator for the CONGEST
// model of distributed computing (Peleg 2000), as specified in Section 1.1
// of Agarwal & Ramachandran, "Faster Deterministic All Pairs Shortest Paths
// in Congest Model" (SPAA 2020):
//
//   - n processors (nodes) connected by the links of the input graph; for a
//     directed input graph the communication network is the underlying
//     undirected graph UG.
//   - Computation proceeds in synchronous rounds. In each round a node may
//     send a constant number of words along each incident link, and it
//     receives in round r+1 the messages sent to it in round r.
//   - Local computation is free; complexity is measured in rounds.
//
// Protocols are per-node state machines driven by the engine. The engine
// enforces CONGEST legality: messages may only travel along links of UG and
// the number of words per link direction per round must not exceed the
// configured bandwidth. Violations are reported as errors rather than being
// silently absorbed, so tests can assert that an algorithm never overdrives
// an edge.
//
// The data plane is built for scale (see DESIGN.md): the adjacency is a
// CSR-style flat arena, and a message names its link by slot — its position
// in the sender's sorted neighbor list — so the engine checks legality,
// finds the receiver and the receiver's slot in O(1) through a reverse-link
// table, with no search on the message path. Message delivery moves
// double-buffered flat message arenas through a two-pass counting sort
// keyed on receiver (zero allocations per message in steady state), rounds
// step only the active nodes (non-terminated or with a non-empty inbox), one
// at a time in ascending id order, and a run may start from a sparse round-0
// set (RunFrom). Parallelism lives one level up: ShardRuns spreads
// independent sub-runs (one per source) across cloned networks when
// Parallel is set, with statistics merged so results are bit-identical to
// sequential execution.
package congest

import (
	"context"
	"fmt"
	"slices"

	"congestapsp/internal/graph"
)

// Message is one CONGEST message. Payload is a small fixed tuple of int64
// slots plus a protocol-defined Kind tag; this models the "constant number
// of node ids, edge weights and distance values per edge per round" that the
// paper assumes, and makes the word accounting concrete. The fields are
// ordered so a Message packs into 40 bytes.
//
// A sender addresses a message by Link alone: the slot of the link in its
// own Neighbors(v). The engine fills From (the sender) and To (the node at
// the other end of the link) and ignores whatever the sender put there. On
// delivery Link is the receiver's slot for the same link, so
// Neighbors(To)[Link] == From and the receiver reaches its per-link state
// without a search.
type Message struct {
	A, B, C  int64
	From, To int32
	Link     int32
	Kind     uint8
	// Words is the bandwidth cost of the message; zero counts as one word.
	Words uint8
}

func (m *Message) cost() int32 {
	if m.Words > 0 {
		return int32(m.Words)
	}
	return 1
}

// Proto is a distributed protocol expressed as a per-node step function.
//
// Step is invoked once per node per round, in increasing round order. in
// holds the messages delivered to v this round (sent in the previous round),
// in a deterministic order (sorted by sender id, then by send order at the
// sender); the slice aliases an engine arena and must not be retained past
// the call. Each delivered message has From set to its sender, To to v and
// Link to v's slot for the link it arrived on. send queues a message for
// delivery next round along the link whose slot in Neighbors(v) is its Link
// field; the engine fills From and To. Step returns true when node v has
// terminated; the protocol as a whole terminates when every node has
// returned true and no messages remain in flight.
//
// The engine schedules actively: a node that returned true and has an empty
// inbox may be skipped in subsequent rounds until a message arrives for it
// (it is always woken by an incoming message, and skipped nodes never miss
// one). A node that must act spontaneously at a future round — without
// being triggered by a message — must keep returning false until that round
// has passed, and may return true once its last spontaneous send is done.
// RunFrom applies the same rule to round 0: a node left out of the round-0
// set is treated as terminated with an empty inbox, so stepping it in round
// 0 must send nothing and return true. Builds with -tags matcheck check
// this (ErrRoundZero).
//
// Step for node v must only read and write state belonging to v (protocols
// keep per-node state in slices indexed by node id). The engine steps the
// active nodes of a round one at a time, in ascending id order.
type Proto interface {
	Step(v int, round int, in []Message, send func(Message)) bool
}

// ProtoFunc adapts a function to the Proto interface.
type ProtoFunc func(v int, round int, in []Message, send func(Message)) bool

// Step implements Proto.
func (f ProtoFunc) Step(v int, round int, in []Message, send func(Message)) bool {
	return f(v, round, in, send)
}

// Stats accumulates the cost measures of one or more protocol executions on
// a network.
type Stats struct {
	Rounds   int   // total synchronous rounds consumed
	Messages int64 // total messages delivered
	Words    int64 // total words delivered
	// WordsByNode[v] counts words sent by v; the maximum over v is the
	// "congestion at a node" measure used in Section 4 of the paper.
	WordsByNode []int64
}

// MaxNodeCongestion returns max_v WordsByNode[v].
func (s *Stats) MaxNodeCongestion() int64 {
	var m int64
	for _, w := range s.WordsByNode {
		if w > m {
			m = w
		}
	}
	return m
}

// Network is a CONGEST communication network over the underlying undirected
// graph of an input graph.
type Network struct {
	G  *graph.Graph // the input graph (directed or undirected)
	UG *graph.Graph // communication topology (underlying undirected graph)

	// Bandwidth is the number of words each node may send along each
	// incident link per round in each direction. The paper assumes a
	// constant number of ids/weights/distances per edge per round.
	Bandwidth int

	// Parallel lets ShardRuns spread whole sub-runs (one per source) across
	// a fleet of cloned networks on a worker pool. It does not change how a
	// single run executes: every round runs on the calling goroutine.
	// Results are bit-identical to sequential execution either way.
	Parallel bool

	// OnRound, when set, is invoked after every simulated round, and every
	// round ChargeSchedule or ChargeFixed replays, with a monotonically
	// increasing round sequence number and the number of messages
	// delivered into that round's inboxes. The sequence number counts
	// simulated rounds, which can fall far below Stats.Rounds: the latter
	// follows the paper's charged schedules, and a fixed-budget run
	// (RunFor) is charged its whole budget even when every node has
	// terminated early. It powers the -trace output of cmd/apsp; the hook
	// must not call back into the network.
	OnRound func(round int, delivered int)

	roundSeq int // monotonic simulated-round counter for OnRound

	Stats Stats

	// CSR adjacency of UG: nbrs[nbrOff[v]:nbrOff[v+1]] is the sorted,
	// deduplicated neighbor set of v, and link slot i of v is position
	// p = nbrOff[v]+i. rev[p] is the slot of the same link at the other
	// end u = nbrs[p]: nbrs[nbrOff[u]+rev[p]] == v.
	nbrOff []int32
	nbrs   []int
	rev    []int32

	eng     engine      // reusable per-run engine state (see run)
	charge  chargeState // pooled state of charged runs (see charge.go)
	scratch Scratch     // pooled protocol scratch (see scratch.go / DESIGN.md §7)

	// RetrySequential opts ShardRuns into graceful degradation: when a
	// sub-run panics (not a protocol error, not cancellation), its partial
	// statistics are rewound, the remaining sub-runs keep running, and the
	// panicked indices are re-executed sequentially on a fresh clone after
	// the fleet drains. A successful retry pass produces merged stats
	// bit-identical to an undisturbed run. The policy costs one O(n) stats
	// snapshot per sub-run while armed, so it stays off on the benchmark
	// hot path.
	RetrySequential bool

	// fleet caches the worker clones handed out by ShardRuns, so repeated
	// source-sharded stages (Steps 1/3/7, the q-sink SSSPs, the per-commit
	// blocker upcasts) reuse one clone fleet — and its warm engines and
	// scratch arenas — instead of re-deriving per-stage state.
	fleet []*Network

	// ctx, when armed via SetContext, is observed by the engine at round
	// granularity and by ShardRuns at sub-run granularity; the run returns
	// ctx.Err() (context.Canceled or context.DeadlineExceeded) unwrapped.
	// done caches ctx.Done(): a round polls it with a non-blocking receive
	// and calls ctx.Err() only once it is closed, since Err takes the
	// context's mutex. Disarmed (nil) the hot path pays one nil-check per
	// round.
	ctx  context.Context
	done <-chan struct{}

	// fault, when armed via SetFaultInjector, is fired at the top of every
	// engine round and at every ShardRuns sub-run start (see
	// internal/faultinject). Disarmed it costs one nil-check per round.
	fault FaultInjector

	// subrun tags the sub-run index this network is currently executing
	// under ShardRuns (-1 outside ShardRuns); it is reported to the fault
	// injector and stamped into PanicError.
	subrun int
}

// FaultInjector is the engine-side fault-injection hook (implemented by
// internal/faultinject.Injector). Every method may sleep, panic, or return
// a forced error; a nil error means "no fault fired, keep going". The
// injector is armed explicitly via SetFaultInjector, so a disarmed network
// pays exactly one nil-check per hook site.
type FaultInjector interface {
	// FireRound runs at the top of every engine round. subrun is the
	// ShardRuns sub-run index the executing network is serving (-1 outside
	// ShardRuns); round is the 0-based round of the current protocol run.
	// FireRound may be called concurrently from worker clones.
	FireRound(subrun, round int) error
	// FireSubRun runs before each ShardRuns sub-run dispatch (inside the
	// panic-recovery scope, so an injected panic is isolated like any
	// worker panic).
	FireSubRun(subrun int) error
	// SetStage tells the injector which pipeline stage is executing; it is
	// called between stages, never concurrently with Fire*.
	SetStage(stage string)
}

// SetContext arms (or, with nil, disarms) run cancellation: while armed,
// the engine round loop and the ShardRuns dispatcher observe ctx.Done()
// and abort with ctx.Err(). A context that can never be canceled
// (ctx.Done() == nil, e.g. context.Background()) disarms the check
// entirely so the steady-state round loop pays only a nil comparison.
func (nw *Network) SetContext(ctx context.Context) {
	nw.ctx, nw.done = nil, nil
	if ctx != nil {
		if done := ctx.Done(); done != nil {
			nw.ctx, nw.done = ctx, done
		}
	}
}

// SetFaultInjector arms (nil: disarms) the fault-injection hook on nw.
// ShardRuns propagates the hook to its worker clones per call.
func (nw *Network) SetFaultInjector(fi FaultInjector) { nw.fault = fi }

// NotifyStage forwards the executing pipeline stage name to the armed
// fault injector (no-op when disarmed). Callers invoke it between stages,
// never while a protocol is running.
func (nw *Network) NotifyStage(stage string) {
	if nw.fault != nil {
		nw.fault.SetStage(stage)
	}
}

// CtxErr reports the armed context's cancellation state (nil when no
// cancelable context is armed, or while it is live) — the same check the
// engine's round loop performs, exposed so the pipeline executor can
// observe cancellation at stage boundaries too.
func (nw *Network) CtxErr() error {
	select {
	case <-nw.done: // a nil channel, when disarmed, is never ready
		return nw.ctx.Err()
	default:
		return nil
	}
}

// NewNetwork builds a network for input graph g with the given per-link
// bandwidth (words per direction per round). Bandwidth must be >= 1.
func NewNetwork(g *graph.Graph, bandwidth int) (*Network, error) {
	if bandwidth < 1 {
		return nil, fmt.Errorf("congest: bandwidth must be >= 1, got %d", bandwidth)
	}
	if err := g.Validate(); err != nil {
		return nil, err
	}
	ug := g.UnderlyingUndirected()
	n := g.N
	nw := &Network{
		G:         g,
		UG:        ug,
		Bandwidth: bandwidth,
		subrun:    -1,
	}
	nw.Stats.WordsByNode = make([]int64, n)
	nw.nbrOff, nw.nbrs, nw.rev = buildCSR(ug)
	return nw, nil
}

// buildCSR builds the CSR adjacency of ug and its reverse-link table: fill
// with an upper bound per node (incident edge count), then sort and dedup
// each range in place, compacting as we go.
func buildCSR(ug *graph.Graph) (nbrOff []int32, nbrs []int, rev []int32) {
	n := ug.N
	nbrOff = make([]int32, n+1)
	offs := make([]int32, n+1)
	for v := 0; v < n; v++ {
		offs[v+1] = offs[v] + int32(ug.OutDegree(v))
	}
	arena := make([]int, offs[n])
	fill := make([]int32, n)
	copy(fill, offs[:n])
	for v := 0; v < n; v++ {
		ug.OutNeighbors(v, func(u int, _ int64) {
			arena[fill[v]] = u
			fill[v]++
		})
	}
	w := int32(0)
	for v := 0; v < n; v++ {
		rng := arena[offs[v]:fill[v]]
		slices.Sort(rng)
		for i, u := range rng {
			if i == 0 || u != rng[i-1] {
				arena[w] = u
				w++
			}
		}
		nbrOff[v+1] = w
	}
	nbrs = arena[:w:w]
	// Scanning v in increasing order meets the entries of each row of u in
	// increasing order too, so a per-node cursor yields v's slot at u.
	rev = make([]int32, w)
	cursor := fill[:n]
	clear(cursor)
	for v := 0; v < n; v++ {
		for p := nbrOff[v]; p < nbrOff[v+1]; p++ {
			u := nbrs[p]
			rev[p] = cursor[u]
			cursor[u]++
		}
	}
	return nbrOff, nbrs, rev
}

// SyncTopology re-derives the communication topology from the (mutated)
// input graph: the underlying undirected graph, the CSR adjacency arena and
// the reverse-link table are rebuilt and re-pointed on nw AND on every
// cached worker clone (clones share the arenas by reference, so leaving
// them stale would split the fleet across two topologies). Weight-only
// mutations never need this — the CSR is topology-only and UG weights are
// never read after construction — but edge insertion/removal does. The
// engine's per-link arenas re-size lazily on the next Run.
func (nw *Network) SyncTopology() error {
	if err := nw.G.Validate(); err != nil {
		return err
	}
	nw.UG = nw.G.UnderlyingUndirected()
	nw.nbrOff, nw.nbrs, nw.rev = buildCSR(nw.UG)
	for _, cl := range nw.fleet {
		cl.UG = nw.UG
		cl.nbrOff, cl.nbrs, cl.rev = nw.nbrOff, nw.nbrs, nw.rev
	}
	return nil
}

// N returns the number of nodes.
func (nw *Network) N() int { return nw.G.N }

// Neighbors returns v's neighbors in the communication graph, sorted by id.
// The returned slice aliases the adjacency arena and must not be modified.
func (nw *Network) Neighbors(v int) []int {
	return nw.nbrs[nw.nbrOff[v]:nw.nbrOff[v+1]]
}

// Degree returns the number of communication links incident to v.
func (nw *Network) Degree(v int) int {
	return int(nw.nbrOff[v+1] - nw.nbrOff[v])
}

// LinkIndex returns the slot of the link {v,u} at v — the position of u in
// Neighbors(v) — or -1 when no such link exists. It is a binary search: a
// sender that knows only the receiver's id uses it to address a Message,
// and protocols use it to build per-link state parallel to Neighbors(v).
func (nw *Network) LinkIndex(v, u int) int {
	if i, ok := slices.BinarySearch(nw.nbrs[nw.nbrOff[v]:nw.nbrOff[v+1]], u); ok {
		return i
	}
	return -1
}

// IsLink reports whether {u,v} is a communication link.
func (nw *Network) IsLink(u, v int) bool {
	return nw.LinkIndex(u, v) >= 0
}

// Scratch returns the network's pooled scratch arena. It is owned by the
// network's single-execution discipline: never share it across goroutines
// (worker clones carry their own).
func (nw *Network) Scratch() *Scratch { return &nw.scratch }

// ResetStats zeroes the accumulated statistics (and the OnRound trace
// sequence number) in place, so a warm network can start a fresh logical
// run — the reset point of a session's Run-after-Run reuse.
func (nw *Network) ResetStats() {
	s := &nw.Stats
	s.Rounds, s.Messages, s.Words = 0, 0, 0
	if len(s.WordsByNode) != nw.G.N {
		s.WordsByNode = make([]int64, nw.G.N)
	}
	clear(s.WordsByNode)
	nw.roundSeq = 0
}

// SetBandwidth reconfigures the per-link word budget on nw and on its
// cached worker-clone fleet (clones inherit Bandwidth when created, so a
// warm session that changes bandwidth between runs must reach them too).
func (nw *Network) SetBandwidth(b int) error {
	if b < 1 {
		return fmt.Errorf("congest: bandwidth must be >= 1, got %d", b)
	}
	nw.Bandwidth = b
	for _, cl := range nw.fleet {
		cl.Bandwidth = b
	}
	return nil
}

// ChargeRounds adds k rounds to the running total without simulating them.
// It exists for protocol steps whose round cost the paper charges as part of
// a composed schedule (see DESIGN.md); use sparingly and document each call
// site.
func (nw *Network) ChargeRounds(k int) { nw.Stats.Rounds += k }

// ErrBandwidth is returned (wrapped) when a protocol exceeds the per-link
// bandwidth in some round.
type ErrBandwidth struct {
	Round    int
	From, To int
	Words    int
	Limit    int
}

// Error describes which link exceeded its per-round word budget.
func (e *ErrBandwidth) Error() string {
	return fmt.Sprintf("congest: bandwidth violation at round %d on link %d->%d: %d words > limit %d",
		e.Round, e.From, e.To, e.Words, e.Limit)
}

// ErrNotALink is returned when a protocol sends on a link slot outside
// [0, Degree(From)).
type ErrNotALink struct {
	Round  int
	From   int
	Link   int
	Degree int
}

// Error describes the nonexistent link a node tried to send on.
func (e *ErrNotALink) Error() string {
	return fmt.Sprintf("congest: node %d sent on link slot %d at round %d but has %d links", e.From, e.Link, e.Round, e.Degree)
}

// ErrRoundZero is returned, in builds with -tags matcheck only, when a node
// left out of a run's round-0 set would have acted in round 0: stepped once
// with an empty inbox, it sent a message (Sent) or did not terminate.
type ErrRoundZero struct {
	Node int
	Sent bool
}

// Error describes how the left-out node broke the round-0 rule.
func (e *ErrRoundZero) Error() string {
	what := "stayed live"
	if e.Sent {
		what = "sent a message"
	}
	return fmt.Sprintf("congest: node %d is not in the round-0 set but %s in round 0", e.Node, what)
}

// engine is the reusable scratch of run: allocated once per network size
// and reused across rounds and across Run calls, so the steady-state round
// loop performs no allocations.
type engine struct {
	n int

	done   []bool  // set by each step, read only for nodes stepped this round: never reset
	active []int32 // sorted ids stepped this round
	next   []int32 // active list under construction for next round
	all    []int32 // 0..n-1: the round-0 set of Run and RunFor

	// Inbox views into inArena: node v's inbox this round is
	// inArena[inStart[v]:inEnd[v]], valid iff inStamp[v] == stamp.
	inArena []Message
	inStart []int32
	inEnd   []int32
	inStamp []uint64
	stamp   uint64

	// out is the other half of the double-buffered message arenas: the
	// round's sends in stepping order, so each sender's messages are
	// contiguous and senders ascend. It is reset (not freed) every round,
	// so steady-state rounds do not allocate per message.
	out  []Message
	from int32 // node currently stepping (stamped into Message.From)
	send func(Message)

	// Counting-sort state: cnt[r] is, during pass 1, the number of messages
	// sent to receiver r this round (valid when inStamp[r] is current), and
	// during pass 2, the next arena slot for r.
	cnt     []int32
	touched []int32 // receivers this round, in first-send order
	used    []int32 // per-link words used this round, indexed like nbrs

	capped cappedProto // reusable RunFor wrapper (avoids one alloc per run)

	guardSent bool          // matcheck round-0 guard: the stepped node sent
	guardSend func(Message) // bound once; records a send in guardSent
}

func (e *engine) doSend(m Message) {
	m.From = e.from
	e.out = append(e.out, m)
}

func (e *engine) ensure(n, links int) {
	if e.send == nil {
		e.send = e.doSend
		e.guardSend = func(Message) { e.guardSent = true }
	}
	if e.n != n || len(e.used) != links {
		e.n = n
		e.done = make([]bool, n)
		e.active = make([]int32, 0, n)
		e.next = make([]int32, 0, n)
		e.inStart = make([]int32, n)
		e.inEnd = make([]int32, n)
		e.inStamp = make([]uint64, n)
		e.cnt = make([]int32, n)
		e.touched = make([]int32, 0, n)
		e.used = make([]int32, links)
		e.stamp = 0
	}
}

// Run executes p until global termination or until maxRounds rounds have
// elapsed, whichever is first. It returns the number of rounds executed.
// Statistics accumulate into nw.Stats across calls, so a sequence of Run
// calls models the paper's "Step k takes ... rounds" composition.
//
// A Network supports one execution at a time: Run and RunFor reuse per-run
// scratch state owned by the network, so they must not be called
// concurrently on the same Network or reentrantly from an OnRound hook or a
// protocol Step. Build one Network per goroutine for concurrent experiments.
func (nw *Network) Run(p Proto, maxRounds int) (int, error) {
	return nw.RunFrom(p, nw.allNodes(), maxRounds, false)
}

// allNodes returns 0..n-1, the round-0 set of Run and RunFor.
func (nw *Network) allNodes() []int32 {
	e := &nw.eng
	if len(e.all) != nw.G.N {
		e.all = make([]int32, nw.G.N)
		for v := range e.all {
			e.all[v] = int32(v)
		}
	}
	return e.all
}

// RunFrom is the engine's entry point; Run and RunFor are RunFrom from
// every node. start is the round-0 set, as strictly ascending node ids: only
// these nodes step in round 0. Every other node starts as terminated with an
// empty inbox and first steps when mail reaches it, the rule the engine
// applies to every node after round 0 (see Proto). For a protocol that keeps
// that rule the run delivers the same messages and adds the same Stats as a
// start from every node, while its cost follows the nodes that act; only an
// empty round-0 set differs, simulating no round at all. With fixed false
// the run goes on until global termination or maxRounds rounds and charges
// the rounds it simulated (Run); with fixed true it charges exactly
// maxRounds rounds (RunFor). It returns the rounds charged.
func (nw *Network) RunFrom(p Proto, start []int32, maxRounds int, fixed bool) (int, error) {
	if !fixed {
		return nw.run(p, start, maxRounds, -1)
	}
	before := nw.Stats.Rounds
	c := &nw.eng.capped
	c.p, c.budget = p, maxRounds
	_, err := nw.run(c, start, maxRounds+1, maxRounds-1)
	c.p = nil // drop the protocol reference once the run is over
	if err != nil {
		return 0, err
	}
	nw.Stats.Rounds = before + maxRounds
	return maxRounds, nil
}

// run is the engine proper. Sends made in round dropRound are validated but
// neither delivered nor counted (RunFor's final-round drop); -1 disables
// dropping. A Network supports one run at a time.
func (nw *Network) run(p Proto, start []int32, maxRounds, dropRound int) (int, error) {
	n := nw.G.N
	e := &nw.eng
	e.ensure(n, len(nw.nbrs))
	e.stamp++ // invalidate inbox views from any previous run
	last := int32(-1)
	for _, v := range start {
		if v <= last || int(v) >= n {
			return 0, fmt.Errorf("congest: round-0 set must be ascending node ids below %d", n)
		}
		last = v
	}
	e.active = append(e.active[:0], start...)
	if checkRoundZero && len(start) < n {
		if err := e.guardRoundZero(p, start); err != nil {
			return 0, err
		}
	}

	rounds := 0
	for round := 0; round < maxRounds; round++ {
		// Global termination: no node is live and no message is in flight.
		if len(e.active) == 0 {
			return rounds, nil
		}
		// Interruption hooks, both disarmed to a nil-check in steady state:
		// an armed context is observed at round granularity (a canceled run
		// returns within one round of ctx.Done()), and an armed fault
		// injector may sleep, panic, or force an error here.
		if err := nw.startRound(round); err != nil {
			return rounds, err
		}

		// Step phase: each active node steps once, in ascending id order;
		// its sends accumulate in the out arena.
		e.out = e.out[:0]
		for _, v := range e.active {
			var in []Message
			if e.inStamp[v] == e.stamp {
				in = e.inArena[e.inStart[v]:e.inEnd[v]]
			}
			e.from = v
			e.done[v] = p.Step(int(v), round, in, e.send)
		}
		rounds++
		nw.Stats.Rounds++

		// Delivery: validate, account and count (pass 1), then lay out the
		// inbox segments and place every message (pass 2).
		e.stamp++
		violation := nw.count(round, round != dropRound)
		total := e.place()
		if violation != nil {
			return rounds, violation
		}
		if nw.OnRound != nil {
			nw.OnRound(nw.roundSeq, int(total))
		}
		nw.roundSeq++

		// Active set for the next round: live (not-done) nodes plus every
		// message receiver, sorted and deduplicated. Nodes that terminated
		// with an empty inbox are skipped until a message wakes them.
		e.next = e.next[:0]
		for _, v := range e.active {
			if !e.done[v] {
				e.next = append(e.next, v)
			}
		}
		live := len(e.next)
		if len(e.touched) > 0 {
			e.next = append(e.next, e.touched...)
			slices.Sort(e.next[live:])
			e.active = mergeDedup(e.next, live, e.active[:0])
		} else {
			e.active, e.next = e.next, e.active
		}
	}
	if len(e.active) == 0 {
		return rounds, nil
	}
	return rounds, fmt.Errorf("congest: protocol did not terminate within %d rounds", maxRounds)
}

// guardRoundZero steps every node left out of the round-0 set once, in
// round 0 with an empty inbox, and fails the run if one of them sends or
// stays live: such a node would have acted in a start from every node, so
// leaving it out would change the run. Only -tags matcheck builds call it.
func (e *engine) guardRoundZero(p Proto, start []int32) error {
	j := 0
	for v := 0; v < e.n; v++ {
		if j < len(start) && int(start[j]) == v {
			j++
			continue
		}
		e.guardSent = false
		if done := p.Step(v, 0, nil, e.guardSend); !done || e.guardSent {
			return &ErrRoundZero{Node: v, Sent: e.guardSent}
		}
	}
	return nil
}

// mergeDedup merges the two sorted runs buf[:mid] and buf[mid:] into out
// (which must be empty with adequate capacity), dropping duplicates.
func mergeDedup(buf []int32, mid int, out []int32) []int32 {
	i, j := 0, mid
	last := int32(-1)
	for i < mid || j < len(buf) {
		var v int32
		if j >= len(buf) || (i < mid && buf[i] <= buf[j]) {
			v = buf[i]
			i++
		} else {
			v = buf[j]
			j++
		}
		if v != last {
			out = append(out, v)
			last = v
		}
	}
	return out
}

// count is delivery pass 1: for every message sent this round, in sender
// order, check the link slot, account bandwidth, resolve To and the
// receiver's slot from the CSR, and count the message toward its receiver.
// A message on a slot outside [0, Degree) is marked dropped (To = -1) and
// reported as the round's violation if it is the first in scan order. With
// deliver == false (RunFor's final round) the schedule is over: sends are
// still validated, but not counted or delivered.
func (nw *Network) count(round int, deliver bool) error {
	e := &nw.eng
	e.touched = e.touched[:0]
	bw := int32(nw.Bandwidth)
	var (
		vio         error
		msgs, words int64
		v           int32 = -1 // current sender: its messages are contiguous
		off, deg    int32
	)
	for k := range e.out {
		m := &e.out[k]
		if m.From != v {
			v = m.From
			off = nw.nbrOff[v]
			deg = nw.nbrOff[v+1] - off
			clear(e.used[off : off+deg])
		}
		if uint32(m.Link) >= uint32(deg) {
			if vio == nil {
				vio = &ErrNotALink{Round: round, From: int(v), Link: int(m.Link), Degree: int(deg)}
			}
			m.To = -1 // dropped; skipped by placement
			continue
		}
		c := m.cost()
		slot := off + m.Link
		to := int32(nw.nbrs[slot])
		m.To, m.Link = to, nw.rev[slot]
		e.used[slot] += c
		if e.used[slot] > bw && vio == nil {
			vio = &ErrBandwidth{Round: round, From: int(v), To: int(to), Words: int(e.used[slot]), Limit: nw.Bandwidth}
		}
		if !deliver {
			continue
		}
		msgs++
		words += int64(c)
		nw.Stats.WordsByNode[v] += int64(c)
		if e.inStamp[to] != e.stamp {
			e.inStamp[to] = e.stamp
			e.cnt[to] = 0
			e.touched = append(e.touched, to)
		}
		e.cnt[to]++
	}
	nw.Stats.Messages += msgs
	nw.Stats.Words += words
	return vio
}

// place is delivery pass 2: it lays the receivers' inbox segments out
// contiguously in the inbox arena, turns cnt[r] into r's write cursor, and
// copies every counted message into its receiver's segment. Messages are
// visited in sender order, preserving the deterministic (sender id, send
// order) inbox order. It returns the number of messages delivered.
func (e *engine) place() int32 {
	total := int32(0)
	for _, r := range e.touched {
		e.inStart[r] = total
		total += e.cnt[r]
		e.cnt[r] = e.inStart[r]
		e.inEnd[r] = total
	}
	if total == 0 {
		return 0
	}
	if cap(e.inArena) < int(total) {
		e.inArena = make([]Message, total, total+total/2)
	} else {
		e.inArena = e.inArena[:total]
	}
	for k := range e.out {
		to := e.out[k].To
		if to < 0 {
			continue
		}
		slot := e.cnt[to]
		e.cnt[to] = slot + 1
		e.inArena[slot] = e.out[k]
	}
	return total
}

// RunFor executes p for exactly k rounds (protocols with fixed round
// budgets). Early global termination still stops the run, and messages sent
// in the final round are dropped by the schedule — they are validated but
// neither delivered nor counted in Stats — but exactly k rounds are charged
// either way, matching the fixed schedules in the paper.
func (nw *Network) RunFor(p Proto, k int) error {
	_, err := nw.RunFrom(p, nw.allNodes(), k, true)
	return err
}

type cappedProto struct {
	p      Proto
	budget int
}

func (c *cappedProto) Step(v int, round int, in []Message, send func(Message)) bool {
	if round >= c.budget {
		return true
	}
	done := c.p.Step(v, round, in, send)
	return done || round == c.budget-1
}
