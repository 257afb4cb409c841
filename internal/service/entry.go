package service

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"net/http"

	"softpipe/internal/cache"
	"softpipe/internal/machine"
	"softpipe/internal/sim"
	"softpipe/internal/vliw"
)

// entry is what the cache holds for one compile: the compiled object
// itself, never its JSON.  job.compile fills it from the compile result
// it has in hand; after that everything but the decoded programs in progs
// is read-only, shared by every request that finds the entry.
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
	// progs[i] is bins[i] decoded for the simulator, built by the first
	// /run that needs it and shared by every later one.
	progs []sim.Decoded
}

// What an entry is charged, in bytes: a base for the entry itself, its
// machine model and the cache's bookkeeping; per instruction word and per
// slot operation as the compiler holds them (a 48-byte vliw.Instr, a
// 64-byte vliw.SlotOp), and per rotating operand the rings behind it (a
// 96-byte vliw.Rings an op, four bytes a ring register); the sim.Program
// a /run decodes from each binary; per word of initial data; and the
// reply header's loop table.  The base is
// measured on the live heap of the Livermore kernels and seeded sources
// compiled without a run.  The decoded costs are fitted: charged at fill,
// they stand for a program most cold entries never build, and they keep
// such an entry charged about 2.5 times its heap, as it was before slot
// ops shrank to 64 bytes, so a CacheBytes budget holds as many real bytes
// as it did.  An entry that is run is charged about 1.1 times its heap on
// warp and 1.3 times on a rotating machine (TestViewChargeCoversHeap).
const (
	entryCost    = 5 << 10
	binWordCost  = 48
	binOpCost    = 64
	ringsCost    = 96
	ringRegCost  = 4
	progWordCost = 56
	progOpCost   = 175
	initCost     = 8
	loopCost     = 160
)

// seal finishes a filled entry: it makes room for its binaries' decoded
// forms, hashes the wire form for object_sha256 and returns the entry's
// charge, which covers its binaries, its reply header and the sim.Program
// a /run will build from each binary.
func (e *entry) seal() (int64, error) {
	e.progs = make([]sim.Decoded, len(e.bins))
	data, err := json.Marshal(e.wire())
	if err != nil {
		return 0, err
	}
	sum := sha256.Sum256(data)
	e.sha = hex.EncodeToString(sum[:])

	n := int64(entryCost + 8*(len(e.cellII)+len(e.estMII)+len(e.cutWidths)))
	for i := range e.loops {
		l := &e.loops[i]
		n += int64(loopCost + len(l.Reason) + len(l.Explain))
	}
	for _, b := range e.bins {
		n += (binWordCost + progWordCost) * int64(len(b.Instrs))
		for i := range b.Instrs {
			in := &b.Instrs[i]
			n += (binOpCost + progOpCost) * int64(len(in.Ops))
			n += ringRegCost * int64(len(in.Ctl.Ring()))
			for j := range in.Ops {
				if r := in.Ops[j].Rings; r != nil {
					n += ringsCost + ringRegCost*int64(len(r.Dst)+len(r.Src[0])+len(r.Src[1])+len(r.Src[2]))
				}
			}
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
// partitioned entry.  The binaries go in as vliw.Program.Wire, which
// encodes to their JSON bytes at reflection's cost.
func (e *entry) wire() any {
	if e.cells > 0 {
		bins := make([]any, len(e.bins))
		for i, b := range e.bins {
			bins[i] = b.Wire()
		}
		return arrayArtifact{
			MachineName: e.m.Name,
			MachineFP:   e.m.Fingerprint(),
			Binaries:    bins,
			CellII:      e.cellII,
			EstMII:      e.estMII,
			CutWidths:   e.cutWidths,
			Warnings:    e.warnings,
		}
	}
	return artifact{
		MachineName: e.m.Name,
		MachineFP:   e.m.Fingerprint(),
		Binary:      e.bins[0].Wire(),
		FRegs:       e.fregs,
		IRegs:       e.iregs,
		Loops:       e.loops,
	}
}

// program returns the single-cell binary decoded for the simulator.
func (e *entry) program() (*sim.Program, error) {
	if e.cells > 0 {
		return nil, &requestError{http.StatusUnprocessableEntity,
			errors.New("key names a partitioned artifact: run it from source with partition set")}
	}
	p, err := e.progs[0].Program(e.bins[0], e.m)
	if err != nil {
		return nil, &requestError{http.StatusUnprocessableEntity, err}
	}
	return p, nil
}
