package service

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sync"

	"softpipe/internal/cache"
	"softpipe/internal/machine"
	"softpipe/internal/sim"
	"softpipe/internal/vliw"
)

// view is what the service derives from one cached artifact, held by the
// cache beside the bytes for as long as the entry is resident (cache.View)
// so that a hit answers from it instead of parsing the artifact again.
// The bytes stay the truth — the digest and GET /artifact/{key} see only
// them.
//
// The reply header is filled when the view is built: by the singleflight
// leader from the compile result it has in hand, or by one decode of the
// bytes when the request that finds the entry without a view did not
// compile it: a coalesced waiter that asks first, or a hit on an entry
// whose view was over budget.  What only /run needs — the decoded
// binaries and the simulator's program — is made on first use, so an
// entry that is compiled and never run holds its header and nothing else.
// Every part is charged to the cache budget as it is made.
type view struct {
	key  cache.Key
	data []byte // the artifact bytes, shared with the cache entry

	sha     string // object_sha256
	machine string // the artifact's machine name, as replied
	instrs  int
	fregs   int
	iregs   int
	loops   []LoopStats
	// cells > 0 marks a partitioned artifact of that many cell binaries,
	// with the plan facts /run reports back.
	cells     int
	cellII    []int
	estMII    []int
	cutWidths []int

	// mu guards the parts made on first use.  Once set they are shared
	// read-only by every run of the entry.
	mu   sync.Mutex
	bins []*vliw.Program // one per cell; a single-cell artifact has one
	// m is the machine the artifact names and prog the single-cell binary
	// decoded for it.
	m    *machine.Machine
	prog *sim.Program
}

// What a view's parts are charged, in multiples of the artifact's length
// as JSON: measured over the benchmark's hot set, the decoded binaries
// take about twice the JSON they were read from and the sim.Program about
// three times (TestViewChargeCoversHeap).
const (
	binariesCost   = 2
	simProgramCost = 3
)

// headerBytes is the charge for the reply header: the loop table and its
// strings.
func (v *view) headerBytes() int64 {
	n := int64(512 + 8*(len(v.cellII)+len(v.estMII)+len(v.cutWidths)))
	for i := range v.loops {
		l := &v.loops[i]
		n += int64(160 + len(l.Reason) + len(l.Effort) + len(l.Explain))
	}
	return n
}

// anyArtifact reads either cached shape back: a single-cell artifact
// carries Binary, a partitioned one Binaries and the plan facts.
type anyArtifact struct {
	artifact
	Binaries  []*vliw.Program `json:"binaries"`
	CellII    []int           `json:"cell_ii"`
	EstMII    []int           `json:"est_mii"`
	CutWidths []int           `json:"cut_widths"`
}

// binaries returns the cell binaries of either shape.
func (a *anyArtifact) binaries() ([]*vliw.Program, error) {
	bins := a.Binaries
	if a.Binary != nil {
		bins = []*vliw.Program{a.Binary}
	}
	if len(bins) == 0 {
		return nil, errors.New("artifact has no binary")
	}
	for i, bin := range bins {
		if bin == nil {
			return nil, fmt.Errorf("artifact cell %d has no binary", i)
		}
	}
	return bins, nil
}

// decodeArtifact is the one place a request path parses artifact bytes;
// artifact_decodes counts its calls.
func (s *Server) decodeArtifact(data []byte) (*anyArtifact, []*vliw.Program, error) {
	s.decodes.Add(1)
	var a anyArtifact
	if err := json.Unmarshal(data, &a); err != nil {
		return nil, nil, err
	}
	bins, err := a.binaries()
	return &a, bins, err
}

// viewOf returns the view of key's cache entry, whose bytes the caller has
// just obtained as data.  built is the header the caller's own compile
// produced, nil when the bytes came from anywhere else: then, if the entry
// has no view yet, the bytes are decoded — once, binaries included, so
// that a later /run does not parse them a second time.
func (s *Server) viewOf(key cache.Key, data []byte, built *view) (*view, error) {
	got, err := s.cache.View(key, data, func(data []byte) (any, int64, error) {
		v, size := built, int64(0)
		if v == nil {
			a, bins, err := s.decodeArtifact(data)
			if err != nil {
				return nil, 0, err
			}
			v = a.header()
			v.bins = bins
			if a.Binary == nil {
				v.cells, v.cellII, v.estMII, v.cutWidths = len(bins), a.CellII, a.EstMII, a.CutWidths
			}
			size = binariesCost * int64(len(data))
		}
		sum := sha256.Sum256(data)
		v.key, v.data, v.sha = key, data, hex.EncodeToString(sum[:])
		return v, size + v.headerBytes(), nil
	})
	if err != nil {
		return nil, corruptArtifact(err)
	}
	return got.(*view), nil
}

// corruptArtifact is the 500 for cached bytes that do not decode.
func corruptArtifact(err error) error {
	return &requestError{http.StatusInternalServerError, fmt.Errorf("corrupt cached artifact: %w", err)}
}

// header is the view of a, before its bytes are known.
func (a *artifact) header() *view {
	v := &view{machine: a.MachineName, fregs: a.FRegs, iregs: a.IRegs, loops: a.Loops}
	if a.Binary != nil {
		v.instrs = len(a.Binary.Instrs)
	}
	return v
}

// binaries returns the artifact's cell binaries, decoding the bytes if the
// view was built from a compile result and nothing has run yet.
func (s *Server) binaries(v *view) ([]*vliw.Program, error) {
	v.mu.Lock()
	defer v.mu.Unlock()
	if v.bins == nil {
		_, bins, err := s.decodeArtifact(v.data)
		if err != nil {
			return nil, corruptArtifact(err)
		}
		v.bins = bins
		s.cache.Grow(v.key, v, binariesCost*int64(len(v.data)))
	}
	return v.bins, nil
}

// simProgram returns the single-cell binary decoded for the simulator,
// fast-path blocks attached, and the machine it was decoded for.  Both are
// made by the first run that needs them and shared by every later one: a
// sim.Program is immutable, cells hold all run state.
func (s *Server) simProgram(v *view) (*sim.Program, *machine.Machine, error) {
	if v.cells > 0 {
		return nil, nil, &requestError{http.StatusUnprocessableEntity,
			errors.New("key names a partitioned artifact: run it from source with partition set")}
	}
	bins, err := s.binaries(v)
	if err != nil {
		return nil, nil, err
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	if v.m == nil {
		if v.m, err = resolveMachine(v.machine); err != nil {
			return nil, nil, &requestError{http.StatusInternalServerError, err}
		}
	}
	if v.prog == nil {
		p, err := sim.Decode(bins[0], v.m)
		if err != nil {
			return nil, nil, &requestError{http.StatusUnprocessableEntity, err}
		}
		v.prog = p
		s.cache.Grow(v.key, v, simProgramCost*int64(len(v.data)))
	}
	return v.prog, v.m, nil
}
