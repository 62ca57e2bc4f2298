// Package geo builds the synthetic PlanetLab used by the chapter-5
// emulations: geographically placed sites whose pairwise RTTs derive from
// great-circle distances with a random detour factor, per-measurement
// jitter, per-pair loss, and optional "lazy" (slow-responding) sites.
//
// The real PlanetLab is unavailable; this model keeps the properties the
// paper's results depend on — geographic clustering (intra-region RTTs far
// below trans-continental ones), noisy measurements, and uncontrolled
// low-grade loss.
package geo

import (
	"fmt"
	"math"

	"vdm/internal/rng"
)

// Region is a geographic cluster sites are scattered around.
type Region struct {
	Name    string
	Lat     float64
	Lon     float64
	Spread  float64 // stddev of site placement, degrees
	USBased bool
}

// DefaultRegions approximates the PlanetLab footprint of 2011: heavy North
// American and European presence, lighter Asian presence.
func DefaultRegions() []Region {
	return []Region{
		{Name: "us-west", Lat: 37.4, Lon: -122.1, Spread: 3.0, USBased: true},
		{Name: "us-mountain", Lat: 39.7, Lon: -105.0, Spread: 3.0, USBased: true},
		{Name: "us-central", Lat: 41.9, Lon: -93.1, Spread: 3.5, USBased: true},
		{Name: "us-east", Lat: 40.4, Lon: -75.2, Spread: 3.0, USBased: true},
		{Name: "us-south", Lat: 33.6, Lon: -84.5, Spread: 3.0, USBased: true},
		{Name: "eu-west", Lat: 51.5, Lon: -0.1, Spread: 3.0},
		{Name: "eu-central", Lat: 50.1, Lon: 8.7, Spread: 3.5},
		{Name: "asia-east", Lat: 35.7, Lon: 139.7, Spread: 4.0},
	}
}

// Site is one emulated PlanetLab host.
type Site struct {
	ID       int
	Name     string
	Region   string
	Lat, Lon float64
	AccessMS float64 // last-mile latency added per RTT endpoint
	Lazy     bool    // lazy sites answer control messages slowly
	US       bool

	// The unusable-node conditions the paper's figure-5.2 selection
	// pipeline filters out before an experiment.
	Dead     bool // does not respond to pings at all
	NoPing   bool // cannot send pings out (firewalled)
	AgentErr bool // the VDM agent cannot be started remotely
}

// DefaultSitesPerRegion mirrors the paper's environment: enough US sites
// that after the selection pipeline drops the unusable ones a working pool
// of roughly 140 remains.
const DefaultSitesPerRegion = 34

// The synthetic PlanetLab's fixed shape: realistic wide-area RTTs, mild
// jitter, sparse low-grade loss, and a few unstable nodes.
const (
	detourMin, detourMax     = 1.3, 2.2 // multiplicative path-detour factor per pair
	accessMSMin, accessMSMax = 1.0, 8.0 // per-site access latency range
	jitterSigma              = 0.08     // lognormal sigma of per-measurement jitter
	lossMax                  = 0.01     // per-pair loss uniform in [0, lossMax]
	lossyPairFrac            = 0.25     // fraction of pairs that get loss at all
	lazyFrac                 = 0.05     // fraction of lazy sites
	lazyExtraMS              = 150.0    // mean extra response delay of a lazy site

	// Unusable-site fractions, filtered by the lab selection pipeline.
	deadFrac     = 0.12 // sites that never answer pings
	noPingFrac   = 0.05 // sites that cannot ping out
	agentErrFrac = 0.04 // sites where the agent cannot run
)

// Model is a generated synthetic PlanetLab: sites plus the deterministic
// base RTT and loss matrices.
type Model struct {
	Sites       []Site
	baseRTT     [][]float64
	loss        [][]float64
	JitterSigma float64
	LazyExtraMS float64
}

const (
	earthRadiusKM = 6371.0
	// Round-trip propagation in fiber: ~1 ms RTT per 100 km of
	// great-circle distance (2 × ~5 µs/km).
	rttMSPerKM = 0.01
)

// GreatCircleKM returns the great-circle distance between two coordinates.
func GreatCircleKM(lat1, lon1, lat2, lon2 float64) float64 {
	const d = math.Pi / 180
	p1, p2 := lat1*d, lat2*d
	dp := (lat2 - lat1) * d
	dl := (lon2 - lon1) * d
	a := math.Sin(dp/2)*math.Sin(dp/2) + math.Cos(p1)*math.Cos(p2)*math.Sin(dl/2)*math.Sin(dl/2)
	return 2 * earthRadiusKM * math.Asin(math.Min(1, math.Sqrt(a)))
}

// Generate builds a synthetic PlanetLab with sitesPerRegion sites around
// each of the DefaultRegions.
func Generate(sitesPerRegion int, rnd *rng.Stream) *Model {
	m := &Model{JitterSigma: jitterSigma, LazyExtraMS: lazyExtraMS}
	id := 0
	for _, reg := range DefaultRegions() {
		for i := 0; i < sitesPerRegion; i++ {
			m.Sites = append(m.Sites, Site{
				ID:       id,
				Name:     fmt.Sprintf("%s-%02d", reg.Name, i),
				Region:   reg.Name,
				Lat:      rnd.Normal(reg.Lat, reg.Spread),
				Lon:      rnd.Normal(reg.Lon, reg.Spread*1.3),
				AccessMS: rnd.Uniform(accessMSMin, accessMSMax),
				Lazy:     rnd.Bool(lazyFrac),
				US:       reg.USBased,
				Dead:     rnd.Bool(deadFrac),
				NoPing:   rnd.Bool(noPingFrac),
				AgentErr: rnd.Bool(agentErrFrac),
			})
			id++
		}
	}
	n := len(m.Sites)
	m.baseRTT = make([][]float64, n)
	m.loss = make([][]float64, n)
	for i := range m.baseRTT {
		m.baseRTT[i] = make([]float64, n)
		m.loss[i] = make([]float64, n)
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			km := GreatCircleKM(m.Sites[i].Lat, m.Sites[i].Lon, m.Sites[j].Lat, m.Sites[j].Lon)
			detour := rnd.Uniform(detourMin, detourMax)
			rtt := km*rttMSPerKM*detour + m.Sites[i].AccessMS + m.Sites[j].AccessMS
			if rtt < 0.5 {
				rtt = 0.5
			}
			m.baseRTT[i][j] = rtt
			m.baseRTT[j][i] = rtt
			if rnd.Bool(lossyPairFrac) {
				p := rnd.Uniform(0, lossMax)
				m.loss[i][j] = p
				m.loss[j][i] = p
			}
		}
	}
	return m
}

// NumSites reports the number of sites.
func (m *Model) NumSites() int { return len(m.Sites) }

// BaseRTT returns the jitter-free RTT between sites a and b in ms.
func (m *Model) BaseRTT(a, b int) float64 {
	if a == b {
		return 0
	}
	return m.baseRTT[a][b]
}

// Loss returns the per-chunk loss probability between a and b.
func (m *Model) Loss(a, b int) float64 {
	if a == b {
		return 0
	}
	return m.loss[a][b]
}

// USSites returns the indices of US-based sites — the chapter-5 node pool.
func (m *Model) USSites() []int {
	var out []int
	for _, s := range m.Sites {
		if s.US {
			out = append(out, s.ID)
		}
	}
	return out
}

// PickSites hosts a session of pool slots on candidate sites the way the
// paper placed its chapter-5 runs: slot 0, the source, is the first
// us-mountain (Colorado) candidate; the other slots are a shuffle of the
// remaining candidates by the seed's "sites" stream. candidates is not
// modified.
func (m *Model) PickSites(candidates []int, pool int, seed int64) ([]int, error) {
	if len(candidates) < pool {
		return nil, fmt.Errorf("geo: need %d sites, %d candidates", pool, len(candidates))
	}
	sites := append([]int(nil), candidates...)
	for i, id := range sites {
		if m.Sites[id].Region == "us-mountain" {
			sites[0], sites[i] = sites[i], sites[0]
			break
		}
	}
	rest := sites[1:]
	rng.Derive(seed, "sites").Shuffle(len(rest), func(i, j int) { rest[i], rest[j] = rest[j], rest[i] })
	return sites[:pool], nil
}
