package overlay

import (
	"slices"

	"vdm/internal/rng"
)

// switchMargin is the relative improvement over the current parent
// distance a candidate must offer before a switch walk moves the node
// under it, damping oscillation (see Improves).
const switchMargin = 0.02

// DescentRule is one baseline's part of the shared join walk: the choices
// Descent leaves open. A rule is the baseline's node, which embeds
// Descent; Descent's own Visit, Reply, Decide, Unusable, Refused,
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
	// Unusable handles a join target that timed out or reported itself
	// disconnected. (A switch walk just ends.)
	Unusable()
	// Refused handles a join's refused ConnResponse.
	Refused(m ConnResponse)
	// Joined commits a join's accepted ConnResponse (ApplyConnect) and
	// arms the rule's maintenance.
	Joined(from NodeID, m ConnResponse)
}

type descentStage uint8

const (
	descentIdle descentStage = iota
	descentInfo
	descentProbe
	descentConn
)

// Descent is the join machine HMTP, NICE, BTP and random join share: a
// walk down the tree from a start node, one InfoRequest, probe round or
// ConnRequest at a time, that ends attached or starts over under the
// shared restart policy. Every stage entry takes a fresh node-monotonic
// token, and every response, probe result and timeout is fenced by token
// and stage, so whatever belongs to an abandoned step is ignored.
//
// A walk runs in one of two modes. A join attaches an unconnected node and
// restarts on failure. A switch walk (Refine, SwitchTo) moves a connected
// node: BeginSwitch before its ConnRequest, ApplySwitch and EndSwitch on
// acceptance; a refusal, a timeout or the node's orphaning ends it with
// EndSwitch and leaves the tree as it was.
type Descent struct {
	*Peer
	rule DescentRule
	rnd  *rng.Stream

	stage    descentStage
	refining bool // a switch walk is in flight
	token    int
	attempts int
	target   NodeID
	prev     NodeID // the target before the current one
	sentAt   float64
	steps    int      // InfoRequests sent this attempt
	visited  []NodeID // nodes asked this attempt, each once
	tried    []NodeID // ConnRequest targets this attempt
	dists    ProbeResult
	kids     []ChildInfo // the target's children, self excluded
	ids      []NodeID    // scratch: probe targets and closest candidates
	timers   *descentTimer

	tick         func()
	tickS, tickJ float64
}

// descentTimer carries one info or conn timeout through Bus.AfterArg.
// Records are free-listed on the Descent; the token and stage fence off a
// record that fires after its step was left.
type descentTimer struct {
	d     *Descent
	token int
	stage descentStage
	next  *descentTimer
}

// Init sets the descent up for peer p, driven by rule, and installs rule
// as p's hooks. rnd jitters the maintenance ticker; nil runs it unjittered.
func (d *Descent) Init(p *Peer, rule DescentRule, rnd *rng.Stream) {
	d.Peer, d.rule, d.rnd = p, rule, rnd
	d.target, d.prev = None, None
	p.SetHooks(rule)
}

// Base returns the shared peer state.
func (d *Descent) Base() *Peer { return d.Peer }

// Joining reports whether a walk (join or switch) is in flight.
func (d *Descent) Joining() bool { return d.stage != descentIdle }

// Refining reports whether the walk in flight is a switch walk.
func (d *Descent) Refining() bool { return d.refining }

// Target returns the node the walk last sent a request to.
func (d *Descent) Target() NodeID { return d.target }

// Prev returns the target before the current one (None at the start).
func (d *Descent) Prev() NodeID { return d.prev }

// Steps returns the number of InfoRequests this attempt has sent.
func (d *Descent) Steps() int { return d.steps }

// Dist returns the distance this walk measured to id.
func (d *Descent) Dist(id NodeID) (float64, bool) { return d.dists.Get(id) }

// ElapsedMS returns the milliseconds since the walk's last request.
func (d *Descent) ElapsedMS() float64 { return (d.Now() - d.sentAt) * 1000 }

// Tried reports whether this attempt already asked id to connect.
func (d *Descent) Tried(id NodeID) bool { return slices.Contains(d.tried, id) }

// Improves reports whether the measured distance to to beats base by the
// switch margin.
func (d *Descent) Improves(to NodeID, base float64) bool {
	v, ok := d.dists.Get(to)
	return ok && v < base*(1-switchMargin)
}

// Closest returns the unvisited child in kids closest by res, ties broken
// by the lower id, or None when no unvisited child answered.
func (d *Descent) Closest(kids []ChildInfo, res ProbeResult) (NodeID, float64) {
	d.ids = d.ids[:0]
	for _, ci := range kids {
		if !slices.Contains(d.visited, ci.ID) {
			d.ids = append(d.ids, ci.ID)
		}
	}
	return res.Closest(d.ids)
}

// StartJoin begins the join at the source.
func (d *Descent) StartJoin() {
	if d.IsSource() || !d.Alive() {
		return
	}
	d.MarkJoinStart()
	d.Begin(d.Source())
}

// OnOrphaned rejoins from the source.
func (d *Descent) OnOrphaned(leaver, hint NodeID) { d.Begin(d.Source()) }

// Begin starts a join attempt at start, abandoning any walk in flight.
func (d *Descent) Begin(start NodeID) {
	d.begin(0, false)
	d.rule.Visit(start)
}

// Refine starts a switch walk at start with an InfoRequest.
func (d *Descent) Refine(start NodeID) {
	d.begin(0, true)
	d.Info(start)
}

// SwitchTo starts a switch walk straight at to: probe it, then ask it to
// connect.
func (d *Descent) SwitchTo(to NodeID) {
	d.begin(0, true)
	d.probeClosest(append(d.ids[:0], to), d.Conn)
}

// begin resets the per-attempt state. A switch walk in flight ends with
// EndSwitch, so an orphaning never leaves the node refusing children.
func (d *Descent) begin(attempts int, refine bool) {
	if d.refining {
		d.EndSwitch()
	}
	d.attempts, d.refining = attempts, refine
	d.target, d.prev, d.steps = None, None, 0
	d.tried, d.visited, d.dists = d.tried[:0], d.visited[:0], d.dists[:0]
}

// enter moves the walk to stage st under a fresh token.
func (d *Descent) enter(st descentStage) {
	d.stage = st
	d.token++
}

func (d *Descent) stop() {
	d.stage = descentIdle
	d.refining = false
}

// Fail ends the attempt: a switch walk stops with EndSwitch; a join starts
// over from the source under the shared restart policy.
func (d *Descent) Fail() {
	if d.refining {
		d.EndSwitch()
		d.stop()
		return
	}
	d.stop()
	d.RestartJoin(d.attempts+1, func() bool { return !d.Joining() }, d.restart)
}

func (d *Descent) restart(attempts int) {
	d.begin(attempts, false)
	d.rule.Visit(d.Source())
}

// Info asks to for its children.
func (d *Descent) Info(to NodeID) {
	d.prev, d.target = d.target, to
	d.visit(to)
	d.sentAt = d.Now()
	d.steps++
	d.enter(descentInfo)
	d.Net().Send(d.ID(), to, InfoRequest{Token: d.token})
	d.arm(d.InfoTimeoutS)
}

// Conn asks to to adopt the node, carrying the measured distance (zero
// when unmeasured). A switch walk marks the switch in flight first.
func (d *Descent) Conn(to NodeID) {
	if d.refining {
		d.BeginSwitch()
	}
	d.target = to
	d.visit(to)
	d.tried = append(d.tried, to)
	d.sentAt = d.Now()
	d.enter(descentConn)
	dist, _ := d.dists.Get(to)
	d.Net().Send(d.ID(), to, ConnRequest{Token: d.token, Kind: ConnChild, Dist: dist})
	d.arm(ConnTimeoutS)
}

func (d *Descent) visit(id NodeID) {
	if !slices.Contains(d.visited, id) {
		d.visited = append(d.visited, id)
	}
}

func (d *Descent) arm(delay float64) {
	t := d.timers
	if t == nil {
		t = &descentTimer{d: d}
	} else {
		d.timers = t.next
	}
	t.token, t.stage = d.token, d.stage
	d.Net().AfterArg(delay, descentTimeout, t)
}

// descentTimeout is the shared timeout callback (arg: *descentTimer).
func descentTimeout(a any) {
	t := a.(*descentTimer)
	d, tok, st := t.d, t.token, t.stage
	t.next, d.timers = d.timers, t
	if tok != d.token || st != d.stage {
		return // the walk has left the step this timer guarded
	}
	if st == descentInfo {
		d.unusable()
		return
	}
	d.Fail()
}

func (d *Descent) unusable() {
	if d.refining {
		d.Fail()
		return
	}
	d.rule.Unusable()
}

// HandleProtocol feeds the walk its InfoResponses and ConnResponses.
func (d *Descent) HandleProtocol(from NodeID, m Message) {
	switch msg := m.(type) {
	case InfoResponse:
		if d.stage == descentInfo && d.token == msg.Token && d.target == from {
			d.rule.Reply(from, msg)
		}
	case ConnResponse:
		if d.stage == descentConn && d.token == msg.Token && d.target == from {
			d.answered(from, msg)
		}
	}
}

func (d *Descent) answered(from NodeID, m ConnResponse) {
	switch {
	case m.Accepted && d.refining:
		dist, _ := d.dists.Get(from)
		d.ApplySwitch(from, dist, m.RootPath)
		d.EndSwitch()
		d.stop()
	case m.Accepted:
		d.stop()
		d.rule.Joined(from, m)
	case d.refining:
		d.Fail()
	default:
		d.rule.Refused(m)
	}
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
	d.dists.Put(from, d.Measure(from, d.ElapsedMS()))
	d.kids, d.ids = d.kids[:0], d.ids[:0]
	for _, ci := range m.Children {
		if ci.ID != d.ID() {
			d.kids = append(d.kids, ci)
			d.ids = append(d.ids, ci.ID)
		}
	}
	if len(d.ids) == 0 {
		d.rule.Decide(d.kids, nil)
		return
	}
	d.enter(descentProbe)
	tok := d.token
	d.Prober().Launch(d.ids, ProbeTimeoutS, func(res ProbeResult) {
		if d.stage != descentProbe || d.token != tok {
			return
		}
		d.dists.Merge(res)
		d.rule.Decide(d.kids, res)
	})
}

// Decide attaches at the target.
func (d *Descent) Decide(kids []ChildInfo, res ProbeResult) { d.Conn(d.target) }

// Unusable fails the attempt.
func (d *Descent) Unusable() { d.Fail() }

// Refused steps down a level, figure 2.8 of the dissertation: probe the
// refusing node's unvisited children and Visit the closest.
func (d *Descent) Refused(m ConnResponse) {
	d.ids = d.ids[:0]
	for _, ci := range m.Children {
		if ci.ID != d.ID() && !slices.Contains(d.visited, ci.ID) {
			d.ids = append(d.ids, ci.ID)
		}
	}
	if len(d.ids) == 0 {
		d.Fail()
		return
	}
	d.probeClosest(d.ids, d.rule.Visit)
}

// probeClosest probes cands and hands the closest responder, ties broken
// by the lower id, to next; with no responder the attempt fails.
func (d *Descent) probeClosest(cands []NodeID, next func(NodeID)) {
	d.enter(descentProbe)
	tok := d.token
	d.Prober().Launch(cands, ProbeTimeoutS, func(res ProbeResult) {
		if d.stage != descentProbe || d.token != tok {
			return
		}
		d.dists.Merge(res)
		best, _ := res.Closest(cands)
		if best == None {
			d.Fail()
			return
		}
		next(best)
	})
}

// Tick starts the rule's maintenance, once: body runs every
// periodS·U(1−jitter, 1+jitter) seconds while the peer is connected, idle
// and not switching, and the ticker stops when the peer leaves. Each
// round runs body before it draws the next period.
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
		d.tick()
	}
	d.scheduleTick()
}
