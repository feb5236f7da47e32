package experiments

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/fleet"
	"repro/internal/stats"
	"repro/internal/substrate"
)

// FleetDrillRate is the sustained targeted campaign intensity: the
// fraction of one replica's deployed image flipped per window.
var FleetDrillRate = 0.10

// fleetDrillWindows is how many campaign windows the drill runs; the
// attacker compounds, the fleet repairs, and the gap between the two
// trajectories is the experiment's result.
const fleetDrillWindows = 10

// fleetDrillReplicas is the fleet size under drill (read quorum 2).
const fleetDrillReplicas = 3

// FleetDrillWindow is one campaign window's four measurements, trial
// averaged.
type FleetDrillWindow struct {
	// TwinAccuracy is the unprotected single-replica twin: the same
	// campaign with no fleet behind it.
	TwinAccuracy float64
	// AttackedAccuracy is the drilled fleet member scored alone,
	// before the window's anti-entropy sweep repairs it.
	AttackedAccuracy float64
	// QuorumAccuracy is what the fleet actually answers: the quorum
	// vote over all three replicas, also before the sweep.
	QuorumAccuracy float64
	// RepairedBits is what the sweep then overwrote back to the
	// cross-replica majority.
	RepairedBits float64
}

// FleetDrillResult carries the protected-vs-unprotected twin table.
type FleetDrillResult struct {
	Dataset  string
	Clean    float64
	Rate     float64
	Replicas int
	Quorum   int
	Windows  []FleetDrillWindow

	// FinalTwin / FinalQuorum are the last window's accuracies; the
	// acceptance gap is their distance from Clean.
	FinalTwin   float64
	FinalQuorum float64
	// MinQuorum is the worst quorum accuracy over the whole drill.
	MinQuorum float64
	// Escalations counts quorum disagreements that forced a full vote;
	// RepairBits is the total anti-entropy repair traffic.
	Escalations float64
	RepairBits  float64
}

// FleetDrill runs the replica-fleet counterpart of the equilibrium
// study: a sustained targeted campaign flips FleetDrillRate of ONE
// replica's deployed image per window while the other two replicas
// idle. The fleet masks the damage twice over — the quorum vote
// outvotes the corrupted member on every query, and the per-window
// anti-entropy sweep overwrites its minority chunks back to the
// cross-replica majority. An unprotected twin (same model, same
// campaign, no fleet) shows what the attacked replica's trajectory
// would have been alone: the twin compounds toward chance while the
// quorum answer never leaves clean accuracy.
func FleetDrill(ctx *Context) (*FleetDrillResult, error) {
	spec := dataset.PAMAP()
	t, err := ctx.HDC(spec)
	if err != nil {
		return nil, err
	}
	clean := t.CleanHDCAccuracy()

	type unit struct {
		twin, attacked, quorum, repaired [fleetDrillWindows]float64
		escalations, repairBits          float64
	}
	trials := runTrials(ctx, ctx.Opts.Trials, func(trial int) unit {
		var u unit
		f, err := fleet.New(t.System, fleet.Config{
			Replicas: fleetDrillReplicas,
			Seed:     ctx.trialSeed("fleetdrill", 0, trial),
			// Recovery substitutions would blur the attribution; the
			// drill isolates quorum masking + anti-entropy repair.
			DisableRecovery: true,
			Substrate: &substrate.Config{
				Kind:        "adversarial",
				RatePerStep: FleetDrillRate,
				StepEvery:   time.Second,
				Targeted:    true,
			},
			// The drill drives fault time and sweeps by hand; park the
			// background loops.
			ScrubTick: 24 * time.Hour,
			AntiEntropy: fleet.AntiEntropyConfig{
				// 10% divergence must stay on the chunk-repair path
				// (the quarantine ladder is exercised elsewhere).
				QuarantineDivergence: 0.25,
			},
		})
		if err != nil {
			panic(err)
		}
		defer f.Close()

		twin := t.System.Fork()
		proc, err := substrate.New(substrate.Config{
			Kind:        "adversarial",
			Seed:        ctx.trialSeed("fleetdrill-twin", 0, trial),
			RatePerStep: FleetDrillRate,
			StepEvery:   time.Second,
			Targeted:    true,
		}, twin.AttackImage())
		if err != nil {
			panic(err)
		}

		for w := 0; w < fleetDrillWindows; w++ {
			// One campaign window lands on fleet replica 0 and on the
			// twin.
			if _, err := f.AdvanceReplica(0, time.Second); err != nil {
				panic(err)
			}
			if _, err := proc.Advance(time.Second); err != nil {
				panic(err)
			}

			// Pre-sweep: the attacked member alone vs the quorum vote.
			if err := f.WithReplica(0, func(sys *core.System) error {
				u.attacked[w] = sys.Model().AccuracyParallel(t.TestEnc, t.Data.TestY, 0)
				return nil
			}); err != nil {
				panic(err)
			}
			classes, _, err := f.ScoreBatch(t.TestEnc, f.Temperature())
			if err != nil {
				panic(err)
			}
			correct := 0
			for i, c := range classes {
				if c == t.Data.TestY[i] {
					correct++
				}
			}
			u.quorum[w] = float64(correct) / float64(len(classes))
			u.twin[w] = twin.Model().AccuracyParallel(t.TestEnc, t.Data.TestY, 0)

			// The window's anti-entropy sweep repairs the drilled
			// replica back to the majority image.
			rep, err := f.SweepNow()
			if err != nil {
				panic(err)
			}
			u.repaired[w] = float64(rep.RepairedBits)
		}
		st := f.Status()
		u.escalations = float64(st.Escalations)
		u.repairBits = float64(st.RepairBits)
		return u
	})

	res := &FleetDrillResult{
		Dataset:   spec.Name,
		Clean:     clean,
		Rate:      FleetDrillRate,
		Replicas:  fleetDrillReplicas,
		Quorum:    fleetDrillReplicas/2 + 1,
		MinQuorum: 1,
	}
	n := float64(len(trials))
	for w := 0; w < fleetDrillWindows; w++ {
		var row FleetDrillWindow
		for _, u := range trials {
			row.TwinAccuracy += u.twin[w] / n
			row.AttackedAccuracy += u.attacked[w] / n
			row.QuorumAccuracy += u.quorum[w] / n
			row.RepairedBits += u.repaired[w] / n
		}
		res.Windows = append(res.Windows, row)
		if row.QuorumAccuracy < res.MinQuorum {
			res.MinQuorum = row.QuorumAccuracy
		}
	}
	last := res.Windows[len(res.Windows)-1]
	res.FinalTwin, res.FinalQuorum = last.TwinAccuracy, last.QuorumAccuracy
	for _, u := range trials {
		res.Escalations += u.escalations / n
		res.RepairBits += u.repairBits / n
	}
	return res, nil
}

// Render formats the fleet drill table.
func (r *FleetDrillResult) Render() string {
	tab := stats.NewTable(
		fmt.Sprintf("Replica-fleet drill on %s (clean %.3f): %s/window targeted campaign on replica 0 of %d, quorum %d",
			r.Dataset, r.Clean, stats.Pct(r.Rate), r.Replicas, r.Quorum),
		"window", "twin (no fleet)", "attacked replica", "quorum answer", "repaired b")
	for w, row := range r.Windows {
		tab.AddRow(
			fmt.Sprintf("%d", w+1),
			fmt.Sprintf("%.3f", row.TwinAccuracy),
			fmt.Sprintf("%.3f", row.AttackedAccuracy),
			fmt.Sprintf("%.3f", row.QuorumAccuracy),
			fmt.Sprintf("%.0f", row.RepairedBits),
		)
	}
	out := tab.Render()
	out += fmt.Sprintf("final window: twin %s below clean, quorum %s below clean (min quorum %.3f)\n",
		stats.PctPoints(stats.QualityLoss(r.Clean, r.FinalTwin)),
		stats.PctPoints(stats.QualityLoss(r.Clean, r.FinalQuorum)),
		r.MinQuorum)
	out += fmt.Sprintf("fleet activity: %.0f quorum escalations, %.0f bits repaired by anti-entropy\n",
		r.Escalations, r.RepairBits)
	return out
}
