package service

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"net/http"
	"sync"

	"softpipe/internal/cache"
	"softpipe/internal/machine"
	"softpipe/internal/sim"
	"softpipe/internal/vliw"
)

// entry is what the cache holds for one compile: the compiled object
// itself, never its JSON.  job.compile fills it from the compile result
// it has in hand; after that everything but prog is read-only, shared by
// every request that finds the entry.
type entry struct {
	key cache.Key
	// sha is object_sha256, the digest of the entry's wire form (wire),
	// marshalled once at fill.
	sha   string
	m     *machine.Machine // the target compiled for
	fregs int
	iregs int
	loops []LoopStats
	// bins holds the cell binaries exactly as the compiler returned them:
	// one for a single-cell compile, one per cell for a partitioned one.
	bins []*vliw.Program
	// cells > 0 marks a partitioned entry of that many cells, with the
	// plan facts /run reports back and the warnings its wire form carries.
	cells     int
	cellII    []int
	estMII    []int
	cutWidths []int
	warnings  []string

	// mu guards prog, the single-cell binary decoded for the simulator,
	// fast-path blocks attached: built by the first /run and shared by
	// every later one (a sim.Program is immutable, cells hold all run
	// state).
	mu   sync.Mutex
	prog *sim.Program
}

// decodeProgram is sim.Decode; the tests count its calls.
var decodeProgram = sim.Decode

// What an entry is charged, in bytes: a base for the entry itself, its
// machine model and the cache's bookkeeping; per instruction word and per
// slot operation as the compiler holds them, and the same again as the one
// sim.Program decodes them (a single-cell entry only); per word of initial
// data; and the reply header's loop table.  Fitted to the live heap of the
// Livermore kernels and seeded sources, each compiled and run once
// (TestViewChargeCoversHeap).
const (
	entryCost    = 3 << 10
	binWordCost  = 90
	binOpCost    = 160
	progWordCost = 80
	progOpCost   = 310
	initCost     = 8
	loopCost     = 160
)

// seal finishes a filled entry: it hashes the wire form for object_sha256
// and returns the entry's charge, which covers its binaries, its reply
// header and, for a single-cell entry, the sim.Program a /run will build.
func (e *entry) seal() (int64, error) {
	data, err := json.Marshal(e.wire())
	if err != nil {
		return 0, err
	}
	sum := sha256.Sum256(data)
	e.sha = hex.EncodeToString(sum[:])

	n := int64(entryCost + 8*(len(e.cellII)+len(e.estMII)+len(e.cutWidths)))
	for i := range e.loops {
		l := &e.loops[i]
		n += int64(loopCost + len(l.Reason) + len(l.Effort) + len(l.Explain))
	}
	wordCost, opCost := int64(binWordCost), int64(binOpCost)
	if e.cells == 0 {
		wordCost, opCost = wordCost+progWordCost, opCost+progOpCost
	}
	for _, b := range e.bins {
		n += wordCost * int64(len(b.Instrs))
		for i := range b.Instrs {
			n += opCost * int64(len(b.Instrs[i].Ops))
		}
		for _, v := range b.InitF {
			n += initCost * int64(len(v))
		}
		for _, v := range b.InitI {
			n += initCost * int64(len(v))
		}
	}
	return n, nil
}

// wire is the entry's wire encoding, the one GET /artifact/{key} serves
// and object_sha256 names: an artifact, or an arrayArtifact for a
// partitioned entry.
func (e *entry) wire() any {
	if e.cells > 0 {
		return arrayArtifact{
			MachineName: e.m.Name,
			MachineFP:   e.m.Fingerprint(),
			Binaries:    e.bins,
			CellII:      e.cellII,
			EstMII:      e.estMII,
			CutWidths:   e.cutWidths,
			Warnings:    e.warnings,
		}
	}
	return artifact{
		MachineName: e.m.Name,
		MachineFP:   e.m.Fingerprint(),
		Binary:      e.bins[0],
		FRegs:       e.fregs,
		IRegs:       e.iregs,
		Loops:       e.loops,
	}
}

// program returns the single-cell binary decoded for the simulator, made
// by the first run that needs it.
func (e *entry) program() (*sim.Program, error) {
	if e.cells > 0 {
		return nil, &requestError{http.StatusUnprocessableEntity,
			errors.New("key names a partitioned artifact: run it from source with partition set")}
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.prog == nil {
		p, err := decodeProgram(e.bins[0], e.m)
		if err != nil {
			return nil, &requestError{http.StatusUnprocessableEntity, err}
		}
		e.prog = p
	}
	return e.prog, nil
}
