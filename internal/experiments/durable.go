package experiments

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"

	"tiermerge/internal/cost"
	"tiermerge/internal/replica"
	"tiermerge/internal/tx"
	"tiermerge/internal/workload"
)

// E19DurableStore validates the durable storage engine (DESIGN.md §14):
// checkpoint + WAL truncation must bound the on-disk log and the recovery
// replay without changing what is recovered.
//
// The same deterministic base day — windows of commits with a window
// advance between them — runs against the durable engine at three
// checkpoint intervals (never, every 4 windows, every window), in
// lockstep with an in-memory cluster journaling its full history into a
// buffer. After the day, each arm's cluster is "crashed" and recovered
// from its checkpoint + tail segments, and the recovery is pinned against
// a full-log replay of the in-memory journal: identical masters and
// byte-identical re-journaled images. The arms then show the win:
// checkpointing shrinks the log footprint and the records a restart
// replays, proportionally to the interval, while the never-checkpoint arm
// carries the whole history forever.
func E19DurableStore() *Table {
	t := &Table{
		ID:    "E19",
		Title: "Durable store: checkpoint + truncation bound the log and the replay",
		Header: []string{
			"ckpt every", "commits", "log B", "full-log B",
			"replayed", "full replay", "ckpts", "reclaimed B",
		},
	}
	dir, err := os.MkdirTemp("", "tiermerge-e19-")
	if err != nil {
		panic(err)
	}
	defer os.RemoveAll(dir)

	const windows, perWindow = 12, 6
	type armResult struct {
		logBytes, fullBytes    int64
		replayed, fullReplayed int
		checkpoints, truncated int64
		equal                  bool
	}
	arms := []int{0, 4, 1} // checkpoint interval in windows; 0 = never
	results := map[int]armResult{}
	for _, every := range arms {
		gen := workload.NewGenerator(workload.Config{Seed: 19, Items: 32, PCommutative: 0.5})
		origin := gen.OriginState()
		cfg := replica.Config{Weights: cost.DefaultWeights()}
		oracle := replica.NewBaseCluster(origin, cfg)
		var full bytes.Buffer
		if err := oracle.AttachJournal(&full); err != nil {
			panic(err)
		}
		armDir := filepath.Join(dir, fmt.Sprintf("every-%d", every))
		durable, _, err := replica.OpenBase(armDir, origin, cfg)
		if err != nil {
			panic(err)
		}
		n := 0
		for w := 0; w < windows; w++ {
			if w > 0 {
				oracle.AdvanceWindow()
				durable.AdvanceWindow()
			}
			if every > 0 && w > 0 && w%every == 0 {
				if err := durable.Checkpoint(); err != nil {
					panic(err)
				}
			}
			for i := 0; i < perWindow; i++ {
				txn := gen.Txn(tx.Base)
				txn.ID = fmt.Sprintf("T%d", n)
				n++
				if err := oracle.ExecBase(txn); err != nil {
					panic(err)
				}
				if err := durable.ExecBase(txn); err != nil {
					panic(err)
				}
			}
		}
		snap := durable.Counters().Snapshot()
		r := armResult{
			logBytes:    durable.LogSize(),
			fullBytes:   int64(full.Len()),
			checkpoints: snap.StoreCheckpoints,
			truncated:   snap.StoreBytesTruncated,
		}
		if err := durable.CloseStore(); err != nil {
			panic(err)
		}

		// Crash: recover from checkpoint + tail, and independently from the
		// full in-memory log; the two recoveries must re-journal to identical
		// bytes.
		re, rec, err := replica.OpenBase(armDir, origin, cfg)
		if err != nil {
			panic(err)
		}
		ob, orec, err := replica.RecoverBaseCluster(bytes.NewReader(full.Bytes()), cfg)
		if err != nil {
			panic(err)
		}
		r.replayed, r.fullReplayed = rec.Records, orec.Records
		var gotImg, wantImg bytes.Buffer
		if err := re.AttachJournal(&gotImg); err != nil {
			panic(err)
		}
		if err := ob.AttachJournal(&wantImg); err != nil {
			panic(err)
		}
		r.equal = re.Master().Equal(ob.Master()) && bytes.Equal(gotImg.Bytes(), wantImg.Bytes())
		re.CloseStore()
		results[every] = r

		label := "never"
		if every > 0 {
			label = fmt.Sprintf("%dw", every)
		}
		t.Rows = append(t.Rows, []string{
			label, fmt.Sprint(n), fmt.Sprint(r.logBytes), fmt.Sprint(r.fullBytes),
			fmt.Sprint(r.replayed), fmt.Sprint(r.fullReplayed),
			fmt.Sprint(r.checkpoints), fmt.Sprint(r.truncated),
		})
	}

	never, every4, every1 := results[0], results[4], results[1]
	t.Checks = append(t.Checks,
		Check{Name: "every arm's recovery is byte-identical to a full-log replay",
			OK: never.equal && every4.equal && every1.equal},
		Check{Name: "checkpoint + truncation shrink the on-disk log",
			OK: every1.logBytes < never.logBytes && every4.logBytes < never.logBytes,
			Note: fmt.Sprintf("log bytes: never=%d every4=%d every1=%d",
				never.logBytes, every4.logBytes, every1.logBytes)},
		Check{Name: "restart replays checkpoint+tail, not the full history",
			OK: every1.replayed < never.replayed && every4.replayed < never.replayed,
			Note: fmt.Sprintf("records replayed: never=%d every4=%d every1=%d",
				never.replayed, every4.replayed, every1.replayed)},
		Check{Name: "tighter checkpoint intervals replay no more than looser ones",
			OK: every1.replayed <= every4.replayed && every4.replayed <= never.replayed},
		Check{Name: "rotations reclaim previous generations (WAL truncation observed)",
			OK: every1.truncated > 0 && every4.truncated > 0 && never.truncated == 0,
			Note: fmt.Sprintf("bytes reclaimed: every4=%d every1=%d",
				every4.truncated, every1.truncated)},
	)
	return t
}
