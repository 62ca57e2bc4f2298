package overlay

// StatusHandler consumes one StatusReport at the session source. at is
// the bus time the report was composed (source's own) or received.
type StatusHandler func(at float64, from NodeID, r StatusReport)

// SetStatusHandler installs the source-side report consumer (typically an
// obs/tree aggregator's Ingest). Reports arriving at a peer without a
// handler are dropped. Install before traffic starts: the handler runs on
// the peer's execution context (event loop or mailbox goroutine).
func (p *Peer) SetStatusHandler(h StatusHandler) { p.statusHandler = h }

// ServeKind says which side of the join protocol a peer served.
type ServeKind int

// The served-request kinds.
const (
	// ServeInfo: the peer answered an InfoRequest.
	ServeInfo ServeKind = iota
	// ServeConn: the peer answered a ConnRequest (ServeEvent.Accepted
	// says how).
	ServeConn
)

// ServeEvent describes one join-protocol request this peer answered, with
// the requester's join correlation id — the cross-peer half of a join
// trace. The peer base cannot import the obs package (obs imports
// overlay), so protocols bridge these into their tracer via
// SetServeObserver.
type ServeEvent struct {
	Kind     ServeKind
	From     NodeID
	JoinID   JoinID
	Accepted bool // ServeConn only
}

// SetServeObserver installs the callback fired after the peer answers an
// InfoRequest or ConnRequest (nil disables). It runs on the peer's
// execution context, after the response was sent.
func (p *Peer) SetServeObserver(fn func(ServeEvent)) { p.serveObs = fn }

// ChunkTraceSample is one arrival observation of a trace-tagged chunk:
// the upstream edge it came over, the chunk's stream sequence, this
// peer's hop depth, and the one-way source→here latency derived from the
// tag's origin timestamp (meaningful when sender and receiver share a
// clock epoch — a cluster does; independent daemons see clock skew).
// Like ServeEvent, it exists so protocols can bridge peer-base
// observations into the obs tracer without an import cycle.
type ChunkTraceSample struct {
	From     NodeID
	Seq      int64
	Depth    int
	LatencyS float64
}

// SetChunkTraceObserver installs the callback fired for every arriving
// trace-tagged chunk, before it is forwarded (nil disables). It runs on
// the peer's execution context.
func (p *Peer) SetChunkTraceObserver(fn func(ChunkTraceSample)) { p.traceObs = fn }

// SetTraceSampling makes the source attach an in-band trace tag to every
// nth emitted chunk (by sequence number; n <= 0 disables, the default).
// Sampling is off by default so the wire stream — and the simulator's
// byte-identical experiment outputs — are unchanged unless an operator
// asks for tracing. A no-op on non-source peers, which only relay tags.
func (p *Peer) SetTraceSampling(n int) {
	if n < 0 {
		n = 0
	}
	p.traceSampleN = n
}

// observeServe fires the serve observer if one is installed.
func (p *Peer) observeServe(ev ServeEvent) {
	if p.serveObs != nil {
		p.serveObs(ev)
	}
}

// EnableStatusReports starts the periodic status ticker: every periodS
// seconds the peer composes a StatusReport and sends it to the source (a
// source peer hands it to its status handler directly, so the aggregator
// sees the root's children too). The ticker self-reschedules through the
// bus, so it works identically under virtual and wall-clock time. It
// stops when the peer leaves; enabling twice or with periodS <= 0 is a
// no-op. Report numbers start at the periods elapsed on the bus clock, so
// a peer that rejoins under an earlier membership's id (the simulator
// reuses slot ids) numbers its reports above that membership's.
func (p *Peer) EnableStatusReports(periodS float64) {
	if periodS <= 0 || p.statusPeriodS > 0 {
		return
	}
	p.statusPeriodS = periodS
	p.statusSeq = uint32(p.Now() / periodS)
	p.scheduleStatus()
}

func (p *Peer) scheduleStatus() {
	p.net.AfterArg(p.statusPeriodS, statusTick, p)
}

// statusTick is the shared ticker callback (arg: *Peer).
func statusTick(a any) {
	p := a.(*Peer)
	if !p.alive {
		return
	}
	p.emitStatus()
	p.scheduleStatus()
}

// emitStatus composes and delivers one report.
func (p *Peer) emitStatus() {
	r := p.ComposeStatus()
	if p.isSource {
		if p.statusHandler != nil {
			p.statusHandler(p.Now(), p.id, r)
		}
		return
	}
	p.net.Send(p.id, p.source, r)
}

// ComposeStatus builds the peer's current status report: tree position,
// degree budget, counter totals, and — when the reliable data plane is
// active — the per-child flow state the source's edge-health aggregator
// attributes to tree edges. Each call advances the report sequence
// number.
func (p *Peer) ComposeStatus() StatusReport {
	p.statusSeq++
	r := StatusReport{
		Seq:        p.statusSeq,
		Parent:     p.parent,
		ParentDist: p.parentDist,
		SrcDist:    p.srcDist,
		Depth:      len(p.rootPath),
		MaxDegree:  p.maxDegree,
		Free:       p.FreeDegree(),
		Connected:  p.connected,
		Children:   p.childSnapshot(),
		Received:   p.stats.Received,
		Forwarded:  p.stats.Forwarded,
		Dups:       p.stats.Dups,
	}
	if p.flow != nil {
		p.flow.fillStatus(&r)
	}
	return r
}
