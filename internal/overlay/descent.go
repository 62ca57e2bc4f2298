package overlay

import (
	"slices"

	"vdm/internal/rng"
)

// The join-restart policy every protocol shares (see Descent.retry): a
// failed join attempt restarts at once, and after restartAttempts
// consecutive failures (e.g. a churn storm) the peer pauses
// restartBackoffS before starting over.
const (
	restartAttempts = 5
	restartBackoffS = 5.0
)

// switchMargin is the relative improvement over the current parent
// distance a candidate must offer before a switch walk moves the node
// under it, damping oscillation (see Improves).
const switchMargin = 0.02

// DescentRule is one protocol's part of the shared join walk: the choices
// Descent leaves open. A rule is the protocol's node, which embeds
// Descent; Descent's own Visit, Reply, Decide, Refused, Switched,
// OnOrphaned and HandleProtocol are the defaults a rule inherits, and a
// node overrides one by declaring the method itself.
type DescentRule interface {
	Hooks
	// Visit sends the walk to node id: the first request of an attempt
	// (at the start node) and the step after a saturated node refused.
	Visit(id NodeID)
	// Reply handles the current target's InfoResponse once the fence
	// has passed it.
	Reply(from NodeID, m InfoResponse)
	// Decide picks the walk's next step once Survey probed the target's
	// children kids (nil res when the target has none).
	Decide(kids []ChildInfo, res ProbeResult)
	// Refused handles a refused ConnResponse. The default ends a switch
	// walk and steps a join down a level.
	Refused(m ConnResponse)
	// Joined commits a join's accepted ConnResponse (ApplyConnect) and
	// arms the rule's maintenance.
	Joined(from NodeID, m ConnResponse)
	// Switched runs when a switch walk ends; moved reports whether it
	// moved the node under a new parent. The default does nothing.
	Switched(moved bool)
}

type descentStage uint8

const (
	descentIdle descentStage = iota
	descentInfo
	descentProbe
	descentConn
)

// walkKind is why a walk runs; it names the walk in trace events.
type walkKind uint8

const (
	walkJoin walkKind = iota
	walkReconnect
	walkRefine
)

func (k walkKind) String() string {
	return [...]string{"join", "reconnect", "refine"}[k]
}

// WalkEventKind names the step of a walk a WalkEvent reports.
type WalkEventKind uint8

const (
	WalkStart   WalkEventKind = iota // a fresh attempt begins at Target
	WalkInfo                         // an InfoRequest to Target
	WalkConn                         // a ConnRequest to Target
	WalkTimeout                      // Target timed out or is not in the tree
	WalkRestart                      // the attempt failed at Target
	WalkDone                         // a join attached under Target
)

// WalkEvent is one step of a join walk, as the walk's observer sees it
// (SetWalkObserver). Step is the number of nodes the attempt has visited
// (WalkInfo, WalkTimeout, WalkDone), the adopt-list length (WalkConn) or
// the attempt number (WalkRestart); Case names a WalkConn's request
// ("child", "splice" or "foster"); Value is a WalkDone's seconds since the
// attempt began; Detail is the walk's purpose ("join", "reconnect",
// "refine"; "foster" on the start of a foster quick-start).
type WalkEvent struct {
	Kind   WalkEventKind
	Target NodeID
	Case   string
	Step   int
	Value  float64
	Detail string
	JoinID JoinID
}

// Descent is the join machine all five protocols share: a walk down the
// tree from a start node, one InfoRequest, probe round or ConnRequest at a
// time, that ends attached or starts over under the shared restart policy.
// Every stage entry takes a fresh node-monotonic token, and every
// response, probe result and timeout is fenced by token and stage, so
// whatever belongs to an abandoned step is ignored.
//
// A walk runs in one of two modes. A join attaches an unconnected node and
// restarts on failure. A switch walk (Refine, SwitchTo) moves a connected
// node: BeginSwitch before its ConnRequest, ApplySwitch and EndSwitch on
// acceptance; a refusal, a timeout or the node's orphaning ends it with
// EndSwitch and leaves the tree as it was.
//
// Each procedure carries a join id (JoinID) on its requests and trace
// events: StartJoin, StartFoster and every maintenance round mint one, a
// rule mints one for a trigger of its own (NextJoinID), and restarts keep
// it.
type Descent struct {
	*Peer
	rule DescentRule
	rnd  *rng.Stream
	// w is the walk in flight or backing off; nil once the node settled.
	w       *walk
	token   int
	curJoin JoinID
	observe func(WalkEvent)

	tick         func()
	tickS, tickJ float64
}

// walk is the state of one walk. It is allocated when a walk begins,
// reused by every attempt until the node settles (connected and idle),
// and then dropped with its timer records, so a population that joined in
// one storm does not pin a walk per peer for the rest of the run.
type walk struct {
	stage    descentStage
	kind     walkKind
	foster   bool // the attempt began with a foster request
	attempts int
	target   NodeID
	prev     NodeID // the target before the current one
	sentAt   float64
	started  float64  // when the attempt began
	steps    int      // InfoRequests sent this attempt
	visited  []NodeID // nodes asked this attempt, each once
	tried    []NodeID // ConnRequest targets this attempt
	dists    ProbeResult
	kids     []ChildInfo // the target's children, self excluded
	ids      []NodeID    // scratch: probe targets and closest candidates
	timers   *descentTimer
}

// descentTimer carries one info or conn timeout through Bus.AfterArg.
// Records are free-listed on the walk; the token and stage fence off a
// record that fires after its step was left.
type descentTimer struct {
	d     *Descent
	token int
	stage descentStage
	next  *descentTimer
}

// backoff carries a join restart past the attempt budget through
// Bus.AfterArg: the walk kind the restarted attempt resumes.
type backoff struct {
	d    *Descent
	kind walkKind
}

// Init sets the descent up for peer p, driven by rule, and installs rule
// as p's hooks. rnd jitters the maintenance ticker; nil runs it unjittered.
func (d *Descent) Init(p *Peer, rule DescentRule, rnd *rng.Stream) {
	d.Peer, d.rule, d.rnd = p, rule, rnd
	p.SetHooks(rule)
}

// Base returns the shared peer state.
func (d *Descent) Base() *Peer { return d.Peer }

// SetWalkObserver installs fn to receive every WalkEvent (nil disables).
func (d *Descent) SetWalkObserver(fn func(WalkEvent)) { d.observe = fn }

// JoinID returns the correlation id of the current (or most recent) join
// procedure; zero before the first.
func (d *Descent) JoinID() JoinID { return d.curJoin }

// NextJoinID mints the correlation id of a new join procedure.
func (d *Descent) NextJoinID() JoinID {
	d.curJoin = MakeJoinID(d.ID(), d.curJoin.Seq()+1)
	return d.curJoin
}

// Joining reports whether a walk (join or switch) is in flight.
func (d *Descent) Joining() bool { return d.w != nil && d.w.stage != descentIdle }

// Refining reports whether the walk in flight is a switch walk.
func (d *Descent) Refining() bool { return d.Joining() && d.w.kind == walkRefine }

// Fostering reports whether the walk began with a foster request.
func (d *Descent) Fostering() bool { return d.w.foster }

// Target returns the node the walk last sent a request to (None when no
// walk is held).
func (d *Descent) Target() NodeID {
	if d.w == nil {
		return None
	}
	return d.w.target
}

// Prev returns the target before the current one (None at the start).
func (d *Descent) Prev() NodeID { return d.w.prev }

// Steps returns the number of InfoRequests this attempt has sent.
func (d *Descent) Steps() int { return d.w.steps }

// Dist returns the distance this walk measured to id.
func (d *Descent) Dist(id NodeID) (float64, bool) { return d.w.dists.Get(id) }

// ElapsedMS returns the milliseconds since the walk's last request.
func (d *Descent) ElapsedMS() float64 { return (d.Now() - d.w.sentAt) * 1000 }

// Visited reports whether this attempt already asked id anything.
func (d *Descent) Visited(id NodeID) bool { return slices.Contains(d.w.visited, id) }

// Tried reports whether this attempt already asked id to connect.
func (d *Descent) Tried(id NodeID) bool { return slices.Contains(d.w.tried, id) }

// Improves reports whether the measured distance to to beats base by the
// switch margin.
func (d *Descent) Improves(to NodeID, base float64) bool {
	v, ok := d.w.dists.Get(to)
	return ok && v < base*(1-switchMargin)
}

// Closest returns the unvisited child in kids closest by res, ties broken
// by the lower id, or None when no unvisited child answered.
func (d *Descent) Closest(kids []ChildInfo, res ProbeResult) (NodeID, float64) {
	w := d.w
	w.ids = w.ids[:0]
	for _, ci := range kids {
		if !slices.Contains(w.visited, ci.ID) {
			w.ids = append(w.ids, ci.ID)
		}
	}
	return res.Closest(w.ids)
}

// StartJoin begins the join at the source.
func (d *Descent) StartJoin() {
	if d.IsSource() || !d.Alive() {
		return
	}
	d.MarkJoinStart()
	d.NextJoinID()
	d.Begin(d.Source())
}

// StartFoster begins the join with the quick-start the dissertation
// describes: a foster request asks the source for a slot beyond its
// degree, so the stream flows at once, and the rule's Joined runs the
// directional search as a refinement.
func (d *Descent) StartFoster() {
	if d.IsSource() || !d.Alive() {
		return
	}
	d.MarkJoinStart()
	d.NextJoinID()
	d.open(0, walkJoin)
	d.w.foster = true
	d.trace(WalkEvent{Kind: WalkStart, Target: d.Source(), Detail: "foster"})
	d.Conn(d.Source())
}

// OnOrphaned rejoins from the source.
func (d *Descent) OnOrphaned(leaver, hint NodeID) { d.Begin(d.Source()) }

// Reconnect is the grandparent-first recovery HMTP and VDM share: a walk
// from hint, the departed parent's own parent, unless it is None, the
// leaver or the node itself, which start at the source. A target of this
// walk that turns out unusable sends it back to the source.
func (d *Descent) Reconnect(leaver, hint NodeID) {
	start := hint
	if start == None || start == leaver || start == d.ID() {
		start = d.Source()
	}
	d.begin(walkReconnect, start)
	d.rule.Visit(start)
}

// Begin starts a join attempt at start, abandoning any walk in flight.
func (d *Descent) Begin(start NodeID) {
	d.begin(walkJoin, start)
	d.rule.Visit(start)
}

// Refine starts a switch walk at start with an InfoRequest.
func (d *Descent) Refine(start NodeID) {
	d.begin(walkRefine, start)
	d.Info(start)
}

// SwitchTo starts a switch walk straight at to: probe it, then ask it to
// connect.
func (d *Descent) SwitchTo(to NodeID) {
	w := d.begin(walkRefine, to)
	d.probeClosest(append(w.ids[:0], to), false, d.Conn)
}

// begin opens a fresh attempt of kind and traces its start at start.
func (d *Descent) begin(kind walkKind, start NodeID) *walk {
	w := d.open(0, kind)
	d.trace(WalkEvent{Kind: WalkStart, Target: start, Detail: kind.String()})
	return w
}

// open resets the walk state for attempt number attempts of kind,
// allocating it if the node had settled. A switch walk in flight ends with
// EndSwitch, so an orphaning never leaves the node refusing children.
func (d *Descent) open(attempts int, kind walkKind) *walk {
	d.EndSwitch()
	w := d.w
	if w == nil {
		w = &walk{}
		d.w = w
	}
	*w = walk{
		kind:     kind,
		attempts: attempts,
		target:   None,
		prev:     None,
		started:  d.Now(),
		visited:  w.visited[:0],
		tried:    w.tried[:0],
		dists:    w.dists[:0],
		kids:     w.kids[:0],
		ids:      w.ids[:0],
		timers:   w.timers,
	}
	return w
}

// enter moves the walk to stage st under a fresh token.
func (d *Descent) enter(st descentStage) {
	d.w.stage = st
	d.token++
}

// at reports whether the walk is still at stage st under token tok.
func (d *Descent) at(st descentStage, tok int) bool {
	return d.w != nil && d.w.stage == st && d.token == tok
}

func (d *Descent) stop() { d.w.stage = descentIdle }

// settle drops the walk state once the node is idle (a hook may have
// begun the next walk) and stops the prober recycling its rounds.
func (d *Descent) settle() {
	if d.Joining() {
		return
	}
	d.w = nil
	d.Prober().Trim()
}

func (d *Descent) trace(e WalkEvent) {
	if d.observe != nil {
		e.JoinID = d.curJoin
		d.observe(e)
	}
}

// Fail ends the attempt: a switch walk stops where it is; a join starts
// over from the source under the shared restart policy.
func (d *Descent) Fail() {
	if d.w.kind == walkRefine {
		d.end()
		return
	}
	d.retry()
}

// retry records the attempt's failure and starts the join over from the
// source, at once while under the attempt budget and after a back-off
// past it; a switch walk ends instead.
func (d *Descent) retry() {
	w := d.w
	attempts := w.attempts + 1
	d.trace(WalkEvent{Kind: WalkRestart, Target: w.target, Step: attempts, Detail: w.kind.String()})
	if w.kind == walkRefine {
		d.end()
		return
	}
	d.stop()
	if attempts < restartAttempts {
		d.open(attempts, w.kind)
		d.rule.Visit(d.Source())
		return
	}
	d.Net().AfterArg(restartBackoffS, descentBackoff, &backoff{d: d, kind: w.kind})
}

// descentBackoff is the back-off callback (arg: *backoff): the join
// starts over as a fresh attempt, only if the node is still alive,
// unconnected and not walking.
func descentBackoff(a any) {
	b := a.(*backoff)
	if d := b.d; d.Alive() && !d.Connected() && !d.Joining() {
		d.begin(b.kind, d.Source())
		d.rule.Visit(d.Source())
	}
}

// end stops a switch walk that did not move the node.
func (d *Descent) end() {
	d.EndSwitch()
	d.stop()
	d.rule.Switched(false)
	d.settle()
}

// Info asks to for its children.
func (d *Descent) Info(to NodeID) {
	w := d.w
	w.prev, w.target = w.target, to
	w.visit(to)
	w.sentAt = d.Now()
	w.steps++
	d.enter(descentInfo)
	d.trace(WalkEvent{Kind: WalkInfo, Target: to, Step: len(w.visited), Detail: w.kind.String()})
	d.Net().Send(d.ID(), to, InfoRequest{Token: d.token, JoinID: d.curJoin})
	d.arm(d.InfoTimeoutS)
}

// Conn asks to to adopt the node as a child.
func (d *Descent) Conn(to NodeID) { d.Splice(to, nil) }

// Splice asks to to adopt the node and hand it the children in adopt
// (Case II of VDM); with no adopt list it is a plain child request. The
// request carries the measured distance (zero when unmeasured), and a
// switch walk marks the switch in flight first. A foster request is not a
// step of the walk: it leaves to unvisited.
func (d *Descent) Splice(to NodeID, adopt []NodeID) {
	w := d.w
	if w.kind == walkRefine {
		d.BeginSwitch()
	}
	w.target = to
	if !w.foster {
		w.visit(to)
	}
	w.tried = append(w.tried, to)
	w.sentAt = d.Now()
	d.enter(descentConn)
	kind, name := ConnChild, "child"
	switch {
	case w.foster:
		name = "foster"
	case len(adopt) > 0:
		kind, name = ConnSplice, "splice"
	}
	d.trace(WalkEvent{Kind: WalkConn, Target: to, Case: name, Step: len(adopt)})
	dist, _ := w.dists.Get(to)
	d.Net().Send(d.ID(), to, ConnRequest{
		Token:  d.token,
		Kind:   kind,
		Dist:   dist,
		Adopt:  adopt,
		Foster: w.foster,
		JoinID: d.curJoin,
	})
	d.arm(ConnTimeoutS)
}

func (w *walk) visit(id NodeID) {
	if !slices.Contains(w.visited, id) {
		w.visited = append(w.visited, id)
	}
}

func (d *Descent) arm(delay float64) {
	w := d.w
	t := w.timers
	if t == nil {
		t = &descentTimer{d: d}
	} else {
		w.timers, t.next = t.next, nil
	}
	t.token, t.stage = d.token, w.stage
	d.Net().AfterArg(delay, descentTimeout, t)
}

// descentTimeout is the shared timeout callback (arg: *descentTimer). A
// record that fires once the node settled goes to the collector.
func descentTimeout(a any) {
	t := a.(*descentTimer)
	d, tok, st := t.d, t.token, t.stage
	if w := d.w; w != nil {
		t.next, w.timers = w.timers, t
	}
	if !d.at(st, tok) {
		return // the walk has left the step this timer guarded
	}
	if st == descentInfo {
		d.unusable()
		return
	}
	d.Fail()
}

// unusable handles a target that timed out or is not in the tree: a
// reconnection falls back to the source; anything else fails.
func (d *Descent) unusable() {
	w := d.w
	d.trace(WalkEvent{Kind: WalkTimeout, Target: w.target, Step: len(w.visited), Detail: w.kind.String()})
	if w.kind == walkReconnect && w.target != d.Source() {
		d.Info(d.Source())
		return
	}
	d.Fail()
}

// HandleProtocol feeds the walk its InfoResponses and ConnResponses.
func (d *Descent) HandleProtocol(from NodeID, m Message) {
	switch msg := m.(type) {
	case InfoResponse:
		if d.at(descentInfo, msg.Token) && d.w.target == from {
			d.rule.Reply(from, msg)
		}
	case ConnResponse:
		if d.at(descentConn, msg.Token) && d.w.target == from {
			d.answered(from, msg)
		}
	}
}

func (d *Descent) answered(from NodeID, m ConnResponse) {
	w := d.w
	switch {
	case !m.Accepted:
		if w.kind == walkRefine {
			// Not switching while the rule decides: a walk that goes on
			// below the refusing node switches again at its next request.
			d.EndSwitch()
		}
		d.rule.Refused(m)
		return
	case w.kind == walkRefine:
		dist, _ := w.dists.Get(from)
		d.ApplySwitch(from, dist, m.RootPath)
		d.EndSwitch()
		d.stop()
		d.rule.Switched(true)
	default:
		d.trace(WalkEvent{Kind: WalkDone, Target: from, Step: len(w.visited), Value: d.Now() - w.started, Detail: w.kind.String()})
		d.stop()
		d.rule.Joined(from, m)
	}
	d.settle()
}

// Visit asks id for its children.
func (d *Descent) Visit(id NodeID) { d.Info(id) }

// Reply gives up on a target that is not connected to the tree (the
// source always is) and surveys any other.
func (d *Descent) Reply(from NodeID, m InfoResponse) {
	if !m.Connected && from != d.Source() {
		d.unusable()
		return
	}
	d.Survey(from, m)
}

// Survey measures the target from the info exchange, then probes its
// children (self excluded) and hands them to the rule's Decide.
func (d *Descent) Survey(from NodeID, m InfoResponse) {
	w := d.w
	w.dists.Put(from, d.Measure(from, d.ElapsedMS()))
	w.kids, w.ids = w.kids[:0], w.ids[:0]
	for _, ci := range m.Children {
		if ci.ID != d.ID() {
			w.kids = append(w.kids, ci)
			w.ids = append(w.ids, ci.ID)
		}
	}
	if len(w.ids) == 0 {
		d.rule.Decide(w.kids, nil)
		return
	}
	d.enter(descentProbe)
	tok := d.token
	d.Prober().Launch(w.ids, ProbeTimeoutS, func(res ProbeResult) {
		if !d.at(descentProbe, tok) {
			return
		}
		w.dists.Merge(res)
		d.rule.Decide(w.kids, res)
	})
}

// Decide attaches at the target.
func (d *Descent) Decide(kids []ChildInfo, res ProbeResult) { d.Conn(d.w.target) }

// Refused ends a switch walk and steps a join down a level.
func (d *Descent) Refused(m ConnResponse) {
	if d.w.kind == walkRefine {
		d.Fail()
		return
	}
	d.StepDown(m, false)
}

// Switched does nothing.
func (d *Descent) Switched(moved bool) {}

// StepDown moves the walk a level down after a refusal, figure 2.8 of the
// dissertation: it Visits the refusing node's unvisited child closest by a
// probe round, and starts over when there is none. With known, every
// distance the walk measured counts, and the round is skipped when each
// child already has one.
func (d *Descent) StepDown(m ConnResponse, known bool) {
	w := d.w
	w.ids = w.ids[:0]
	for _, ci := range m.Children {
		if ci.ID != d.ID() && !slices.Contains(w.visited, ci.ID) {
			w.ids = append(w.ids, ci.ID)
		}
	}
	if len(w.ids) == 0 {
		d.retry()
		return
	}
	if known && measuredAll(w.ids, w.dists) {
		best, _ := w.dists.Closest(w.ids)
		d.rule.Visit(best)
		return
	}
	d.probeClosest(w.ids, known, d.rule.Visit)
}

func measuredAll(ids []NodeID, dists ProbeResult) bool {
	for _, id := range ids {
		if _, ok := dists.Get(id); !ok {
			return false
		}
	}
	return true
}

// probeClosest probes cands and hands the closest responder (with known,
// the closest by every distance the walk measured), ties broken by the
// lower id, to next; with none the attempt starts over.
func (d *Descent) probeClosest(cands []NodeID, known bool, next func(NodeID)) {
	d.enter(descentProbe)
	tok := d.token
	d.Prober().Launch(cands, ProbeTimeoutS, func(res ProbeResult) {
		if !d.at(descentProbe, tok) {
			return
		}
		d.w.dists.Merge(res)
		if known {
			res = d.w.dists
		}
		best, _ := res.Closest(cands)
		if best == None {
			d.retry()
			return
		}
		next(best)
	})
}

// Tick starts the rule's maintenance, once: body runs every
// periodS·U(1−jitter, 1+jitter) seconds while the peer is connected, idle
// and not switching, under a new join id, and the ticker stops when the
// peer leaves. Each round runs body before it draws the next period.
func (d *Descent) Tick(periodS, jitter float64, body func()) {
	if d.tick != nil {
		return
	}
	d.tick, d.tickS, d.tickJ = body, periodS, jitter
	d.scheduleTick()
}

func (d *Descent) scheduleTick() {
	period := d.tickS
	if d.rnd != nil {
		period *= d.rnd.Uniform(1-d.tickJ, 1+d.tickJ)
	}
	d.Net().AfterArg(period, descentTick, d)
}

// descentTick is the maintenance callback (arg: *Descent).
func descentTick(a any) {
	d := a.(*Descent)
	if !d.Alive() {
		return
	}
	if d.Connected() && !d.Joining() && !d.Switching() {
		d.NextJoinID()
		d.tick()
	}
	d.scheduleTick()
}
