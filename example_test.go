package vdm_test

import (
	"fmt"
	"log"
	"strings"

	"vdm"
)

// ExampleRun builds a small VDM multicast tree under churn and reports the
// paper's headline metrics.
func ExampleRun() {
	res, err := vdm.Run(vdm.Config{
		Seed:       1,
		Protocol:   vdm.ProtocolVDM,
		Nodes:      60,
		ChurnPct:   5,
		JoinPhaseS: 600,
		DurationS:  2000,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("reachable peers: %d\n", res.Reachable)
	fmt.Printf("stretch below 4: %v\n", res.Stretch < 4)
	fmt.Printf("loss below 1%%:   %v\n", res.Loss < 0.01)
	// Output:
	// reachable peers: 60
	// stretch below 4: true
	// loss below 1%:   true
}

// ExampleRun_lossAware builds the chapter-4 loss-optimized tree (VDM-L) on
// a lossy underlay.
func ExampleRun_lossAware() {
	res, err := vdm.Run(vdm.Config{
		Seed:        2,
		Metric:      vdm.MetricLoss,
		Nodes:       40,
		JoinPhaseS:  400,
		DurationS:   1200,
		LinkLossMax: 0.02,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("tree built over loss distances: %d peers reachable\n", res.Reachable)
	// Output:
	// tree built over loss distances: 40 peers reachable
}

// ExampleRun_liveStream is the paper's motivating workload, a live stream
// to a churning audience: VDM and HMTP on identical topologies and
// scenarios, the chapter-3 head-to-head. VDM's directional placement
// keeps the tree shallower (hopcount, stretch) without HMTP's refinement
// messaging (overhead).
func ExampleRun_liveStream() {
	run := func(p vdm.Protocol) *vdm.Result {
		res, err := vdm.Run(vdm.Config{
			Seed:       7,
			Protocol:   p,
			Nodes:      150,
			ChurnPct:   7, // percent of the audience replaced per 400 s interval
			JoinPhaseS: 1000,
			DurationS:  5000,
			DataRate:   2,
		})
		if err != nil {
			log.Fatal(err)
		}
		return res
	}
	v, h := run(vdm.ProtocolVDM), run(vdm.ProtocolHMTP)
	fmt.Printf("VDM hopcount below HMTP: %v\n", v.Hopcount < h.Hopcount)
	fmt.Printf("VDM stretch below HMTP:  %v\n", v.Stretch < h.Stretch)
	fmt.Printf("VDM overhead below HMTP: %v\n", v.Overhead < h.Overhead)
	// Output:
	// VDM hopcount below HMTP: true
	// VDM stretch below HMTP:  true
	// VDM overhead below HMTP: true
}

// ExampleRun_planetLab is a chapter-5-style session on the synthetic
// PlanetLab (US sites, jittered RTTs, background loss, a Colorado source)
// with the paper's 5-minute refinement and an MST comparison. Its final
// tree clusters geographically, as the sample trees of figures 5.5/5.6 do.
func ExampleRun_planetLab() {
	res, err := vdm.Run(vdm.Config{
		Seed:          3,
		Protocol:      vdm.ProtocolVDM,
		Nodes:         60,
		ChurnPct:      6,
		JoinPhaseS:    1200,
		DurationS:     4000,
		DataRate:      10,
		Underlay:      vdm.UnderlayPlanetLab,
		USOnly:        true,
		RefinePeriodS: 300,
		ComputeMST:    true,
		DegreeMin:     4,
		DegreeMax:     4,
	})
	if err != nil {
		log.Fatal(err)
	}
	intra := 0
	for _, e := range res.Tree {
		if region(e.ChildLabel) == region(e.ParentLabel) {
			intra++
		}
	}
	fmt.Printf("reachable peers: %d\n", res.Reachable)
	fmt.Printf("startup below 1 s:          %v\n", res.StartupAvg < 1)
	fmt.Printf("tree cost within 2x of MST: %v\n", res.MSTRatio < 2)
	fmt.Printf("most edges within a region: %v\n", 2*intra > len(res.Tree))
	// Output:
	// reachable peers: 60
	// startup below 1 s:          true
	// tree cost within 2x of MST: true
	// most edges within a region: true
}

// region strips the per-site suffix from a label like "us-west-07".
func region(label string) string {
	if i := strings.LastIndex(label, "-"); i >= 0 {
		return label[:i]
	}
	return label
}

// ExampleRun_adaptive compares the paper's plain configuration with a
// deployment profile on the same churning audience: bandwidth-derived
// degrees (the dissertation's future-work degree estimation), the foster
// join and 5-minute refinement. The foster join turns startup into about
// one round trip; stream loss stays as low as the plain tree's. The price
// is stretch (fostered peers settle for good-enough parents sooner) and
// the refinement's control traffic.
func ExampleRun_adaptive() {
	run := func(adaptive bool) *vdm.Result {
		cfg := vdm.Config{
			Seed:       5,
			Protocol:   vdm.ProtocolVDM,
			Nodes:      120,
			ChurnPct:   8,
			JoinPhaseS: 1000,
			DurationS:  5000,
			DataRate:   2,
		}
		if adaptive {
			cfg.BandwidthDegrees = true // degree = uplink / stream bitrate
			cfg.FosterJoin = true
			cfg.RefinePeriodS = 300
		}
		res, err := vdm.Run(cfg)
		if err != nil {
			log.Fatal(err)
		}
		return res
	}
	plain, adaptive := run(false), run(true)
	fmt.Printf("startup under a quarter of plain: %v\n", adaptive.StartupAvg < plain.StartupAvg/4)
	fmt.Printf("loss below 0.1%% in both:          %v\n", plain.Loss < 0.001 && adaptive.Loss < 0.001)
	fmt.Printf("stretch above plain:              %v\n", adaptive.Stretch > plain.Stretch)
	fmt.Printf("overhead above plain:             %v\n", adaptive.Overhead > plain.Overhead)
	// Output:
	// startup under a quarter of plain: true
	// loss below 0.1% in both:          true
	// stretch above plain:              true
	// overhead above plain:             true
}
