package sim

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"vdm/internal/golden"
)

// resultFingerprint hashes everything a session reports except its Config
// (which carries the engine selection and func-typed fields), the way
// benchmark/sim.go:fingerprint does: two runs produced the same output
// exactly when their fingerprints match. The zeroed Config is rendered as
// recordedZeroConfig, so adding or deleting a Config field leaves the
// recorded fingerprints valid.
func resultFingerprint(res *Result) string {
	c := *res
	c.Config = Config{}
	text := strings.Replace(fmt.Sprintf("%+v", c), fmt.Sprintf("%+v", Config{}), recordedZeroConfig, 1)
	sum := sha256.Sum256([]byte(text))
	return hex.EncodeToString(sum[:8])
}

// recordedZeroConfig is the %+v rendering of a zero Config at the time the
// golden fingerprints were recorded.
const recordedZeroConfig = "{Seed:0 Protocol: Metric: Nodes:0 DegreeMin:0 DegreeMax:0 AvgDegree:0 " +
	"DegreeFromBandwidth:false StreamKbps:0 UplinkMeanKbps:0 UplinkSigma:0 DegreeCap:0 Gamma:0 " +
	"VDMRefinePeriodS:0 VDMReconnectAtSrc:false VDMFosterJoin:false HMTPRefinePeriodS:0 " +
	"BTPSwitchPeriodS:0 ChurnPct:0 MeanLifetimeS:0 JoinPhaseS:0 IntervalS:0 SettleS:0 SpreadS:0 " +
	"DurationS:0 BatchSize:0 DataRate:0 Underlay: RouterJitterSigma:0 RouterMin:0 LinkLossMax:0 " +
	"GeoCfg:<nil> GeoUSOnly:false GeoModel:<nil> GeoSites:[] CtrlLossProb:0 ComputeMST:false " +
	"Validate:false Trace:<nil> EventSink:<nil> StatusPeriodS:0 StatusHandler:<nil> Scenario:<nil> " +
	"Shards:0 Progress:<nil> ProgressEveryS:0 Profile:<nil> CheckpointPath: CheckpointEveryS:0}"

// TestSerialGoldenFingerprints pins session output by value: each case's
// fingerprint and event count, one line per case, in
// testdata/fingerprints.golden. The parity suite compares the sharded
// engine against the serial one, so a change that moves both in lockstep
// — or that edits the serial driver itself — is only caught by values
// recorded before the change: any perturbation of the event history (an
// RNG draw added or reordered, a timer scheduled differently, a metric
// computed in another order) moves a fingerprint. The first five cases
// were recorded at the commit before the two engines were folded onto
// one bus and one session state; the sixth runs a 300-peer session on
// the sharded engine, so the epoch controller is pinned by value too.
//
// If one fails because the event history changed ON PURPOSE, `make
// goldens` re-records the file; say so in the commit message.
//
// The four *-churn cases pin each join baseline by value on one churned
// router session, recorded before the baselines moved onto the shared
// overlay.Descent machine; between them they run HMTP refinement, BTP
// sibling switches, NICE cluster splits and orphan rejoins.
func TestSerialGoldenFingerprints(t *testing.T) {
	if testing.Short() {
		t.Skip("several full sessions")
	}
	cases := []struct {
		name string
		cfg  Config
	}{
		{"vdm-router-churn", Config{
			Seed: 11, Protocol: VDM, Nodes: 60, RouterMin: 120, ChurnPct: 15,
			JoinPhaseS: 200, IntervalS: 100, SettleS: 40, DurationS: 700,
			DataRate: 2, LinkLossMax: 0.02, ComputeMST: true,
		}},
		{"vdm-geo", Config{
			Seed: 3, Protocol: VDM, Nodes: 40, DegreeMin: 4, DegreeMax: 4, ChurnPct: 10,
			JoinPhaseS: 300, IntervalS: 100, SettleS: 40, DurationS: 800,
			DataRate: 5, Underlay: Geo, GeoUSOnly: true, VDMRefinePeriodS: 120,
		}},
		{"hmtp-batch", Config{
			Seed: 7, Protocol: HMTP, Metric: "loss", Nodes: 48, BatchSize: 12,
			RouterMin: 100, IntervalS: 100, SettleS: 40, LinkLossMax: 0.05,
		}},
		{"validate-ctrl-loss", Config{
			Seed: 42, Protocol: VDM, Nodes: 40, RouterMin: 100, ChurnPct: 20,
			JoinPhaseS: 200, IntervalS: 100, SettleS: 50, DurationS: 600,
			CtrlLossProb: 0.05, Validate: true, StatusPeriodS: 30,
		}},
		{"loss-est", Config{
			Seed: 31, Protocol: VDM, Metric: "loss-est", Nodes: 50, RouterMin: 100,
			JoinPhaseS: 200, IntervalS: 100, SettleS: 40, DurationS: 500,
			DataRate: 2, LinkLossMax: 0.03,
		}},
		{"vdm-router-sharded", Config{
			Seed: 7, Protocol: VDM, Nodes: 300, ChurnPct: 5, DurationS: 400,
			JoinPhaseS: 200, DataRate: 0.5, RouterMin: 120, Shards: 2,
		}},
		{"hmtp-churn", baselineChurn(HMTP)},
		{"btp-churn", baselineChurn(BTP)},
		{"nice-churn", baselineChurn(NICE)},
		{"random-churn", baselineChurn(Random)},
	}
	lines := make([]string, len(cases))
	for i, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			res, err := Run(tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			if res.EventsProcessed == 0 || len(res.Samples) == 0 || res.FinalReachable == 0 {
				t.Fatalf("degenerate session: %d events, %d samples, %d reachable",
					res.EventsProcessed, len(res.Samples), res.FinalReachable)
			}
			lines[i] = fmt.Sprintf("%s %s %d\n", tc.name, resultFingerprint(res), res.EventsProcessed)
		})
	}
	if slices.Contains(lines, "") {
		return // a case failed, or -run left it out: the file pins all ten
	}
	got := "# case fingerprint events\n" + strings.Join(lines, "")
	golden.Check(t, filepath.Join("testdata", "fingerprints.golden"), []byte(got))
}

// baselineChurn is the churned router session the baseline cases share.
func baselineChurn(p ProtocolKind) Config {
	return Config{
		Seed: 5, Protocol: p, Nodes: 60, RouterMin: 120, ChurnPct: 15,
		JoinPhaseS: 200, IntervalS: 100, SettleS: 40, DurationS: 700, DataRate: 2,
	}
}
