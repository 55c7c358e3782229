package main

import (
	"encoding/json"
	"math/rand/v2"
	"slices"

	"shrimp/internal/harness"
)

// A session is one what-if question: scan a knob grid with the
// analytical twin, then simulate a few of its cells as one job. The
// job's cells differ only in knobs, which the harness applies after the
// warmup, so they share one warmup under share_prefix.
type session struct {
	Grid []harness.CellSpec
	Job  []harness.CellSpec
	// Repeat is the index of the earlier session this one repeats
	// exactly (a full cache hit), or -1 for entirely new cells.
	Repeat int
}

const (
	// sessionNodes sizes the what-if machines. At 8 nodes with the quick
	// workloads a cold job of jobCells cells takes about a tenth of a
	// second, so a run sees the hundred jobs its p90 needs.
	sessionNodes = 8
	gridCells    = 8
	jobCells     = 3
	// blockSize sessions form a block: one cold session per
	// checkpointable app in a seeded order, plus one repeat at a seeded
	// position. Every full block has the same app mix and hit share
	// (1/blockSize), so seeds change which cells run, not how much work
	// a run holds.
	blockSize = 5
)

// whatifApps are the applications with a checkpointable warmup, the
// ones prefix sharing and fork apply to.
var whatifApps = []string{"Barnes-SVM", "Ocean-SVM", "Radix-SVM", "Radix-VMMC"}

// Each knob draws from the as-built setting and what-if settings
// around the paper's. The FIFO capacity and the flow-control threshold
// (a share of the capacity, with low water at a third of it) move
// together, so the three FIFO knobs stay consistent.
var (
	fifoBytes  = []int{32 << 10, 24 << 10, 16 << 10, 8 << 10, 4 << 10, 2 << 10, 1 << 10}
	fifoShares = [][2]int{{1, 2}, {3, 4}, {7, 8}}
	duqChoices = []int{1, 2, 3, 4, 6, 8}
)

// knobCount is the number of independently drawn knobs: four switches,
// the FIFO capacity, its threshold share and the DU queue depth.
const knobCount = 7

var knobSizes = [knobCount]int{2, 2, 2, 2, len(fifoBytes), len(fifoShares), len(duqChoices)}

// maxDraws bounds the search for an unseen knob setting; each app has
// 2016 settings, so a draw only fails this often once an app has nearly
// run out of them.
const maxDraws = 10000

// knobDecks deals each knob's values from a shuffled deck that is
// refilled when empty, so every value of every knob appears equally
// often within each app's jobs. Host time depends on the knobs (an
// interrupt per packet costs events), and balanced draws keep the cost
// of a run's jobs nearly the same for every seed.
type knobDecks struct {
	r     *rand.Rand
	decks [knobCount][]int
}

// deal takes one value index of every knob from its deck.
func (d *knobDecks) deal() [knobCount]int {
	var v [knobCount]int
	for k := range v {
		if len(d.decks[k]) == 0 {
			d.decks[k] = d.r.Perm(knobSizes[k])
		}
		v[k] = d.decks[k][0]
		d.decks[k] = d.decks[k][1:]
	}
	return v
}

// putBack returns a refused setting's values to random places in their
// decks, so refusing a setting neither skews the counts nor deals the
// same setting again next.
func (d *knobDecks) putBack(v [knobCount]int) {
	for k := range v {
		if len(d.decks[k]) == 0 {
			d.decks[k] = d.r.Perm(knobSizes[k])
		}
		d.decks[k] = slices.Insert(d.decks[k], d.r.IntN(len(d.decks[k])+1), v[k])
	}
}

func knobsOf(v [knobCount]int) harness.Knobs {
	var sw [4]*bool
	for i := range sw {
		b := v[i] == 1
		sw[i] = &b
	}
	size := fifoBytes[v[4]]
	share := fifoShares[v[5]]
	thresh := size * share[0] / share[1]
	low := thresh / 3
	duq := duqChoices[v[6]]
	return harness.Knobs{
		SyscallPerSend:      sw[0],
		InterruptPerMessage: sw[1],
		InterruptPerPacket:  sw[2],
		Combining:           sw[3],
		OutFIFOBytes:        &size,
		FIFOThresholdBytes:  &thresh,
		FIFOLowWaterBytes:   &low,
		DUQueueDepth:        &duq,
	}
}

// genSessions returns up to n sessions of the sequence seed selects,
// fewer only if an application runs out of unseen knob settings. No
// job cell of a cold session appears in any earlier job, so a cold job
// misses the cache on every cell and a repeat hits on every cell; the
// rest of a grid is only ever scanned by the twin and may recur.
func genSessions(seed uint64, n int) []session {
	r := rand.New(rand.NewPCG(seed, 0x5348524d50))
	// Job cells and scan-only cells draw from separate decks, so the
	// simulated cells alone are balanced.
	jobDecks, scanDecks := map[string]*knobDecks{}, map[string]*knobDecks{}
	for _, app := range whatifApps {
		jobDecks[app], scanDecks[app] = &knobDecks{r: r}, &knobDecks{r: r}
	}
	seen := map[string]bool{}
	var out []session
	var cold []int
	for len(out) < n {
		order := r.Perm(len(whatifApps))
		// The repeat never leads a block, so the first block has a cold
		// session to repeat.
		repeatAt := 1 + r.IntN(blockSize-1)
		next := 0
		for pos := 0; pos < blockSize && len(out) < n; pos++ {
			if pos == repeatAt {
				t := cold[r.IntN(len(cold))]
				out = append(out, session{Grid: out[t].Grid, Job: out[t].Job, Repeat: t})
				continue
			}
			app := whatifApps[order[next]]
			next++
			s := session{Repeat: -1}
			for draws := 0; len(s.Grid) < gridCells; draws++ {
				if draws > maxDraws {
					return out
				}
				if len(s.Grid) >= jobCells {
					s.Grid = append(s.Grid, harness.CellSpec{App: app, Nodes: sessionNodes, Knobs: knobsOf(scanDecks[app].deal())})
					continue
				}
				v := jobDecks[app].deal()
				c := harness.CellSpec{App: app, Nodes: sessionNodes, Knobs: knobsOf(v)}
				key, _ := json.Marshal(c)
				if seen[string(key)] {
					jobDecks[app].putBack(v)
					continue
				}
				seen[string(key)] = true
				s.Grid = append(s.Grid, c)
			}
			s.Job = s.Grid[:jobCells]
			cold = append(cold, len(out))
			out = append(out, s)
		}
	}
	return out
}
