package codegen

import (
	"softpipe/internal/machine"
	"softpipe/internal/pipeline"
)

// The conditions of loop rotation and the segment rule of a reduced loop's
// summary, for the external tests that waive them one at a time.
type Waiver = waiver

const (
	RotPure     = rotPure
	RotLive     = rotLive
	RotOrder    = rotOrder
	RotSegments = rotSegments
)

// Waive makes rotatable and loopAccesses skip w until restore is called.
// Tests that use it must not run in parallel.
func Waive(w Waiver) (restore func()) {
	waived = w
	return func() { waived = 0 }
}

// WholeArm is what ProbeWholeArms reports of one whole-arm body: its
// resource floor and floor, one more than the sum of its construct
// windows, the II of its plan (0: it does not pipeline) and whether
// planBody skipped that plan.
type WholeArm struct {
	Loop, ResourceFloor, Floor, Windows, II int
	Skipped                                 bool
	Err                                     error
}

// ProbeWholeArms calls f with every whole-arm body the back end builds or
// would build, planned whether or not it can win, until restore is called.
// Tests that use it must not run in parallel.
func ProbeWholeArms(f func(WholeArm)) (restore func()) {
	wholeArmProbe = func(loop int, m *machine.Machine, b *pipeline.Body, opts pipeline.Options, skipped bool) {
		w := WholeArm{Loop: loop, Windows: 1, Skipped: skipped}
		for _, nd := range b.Nodes {
			if nd.Payload != nil {
				w.Windows += nd.Len
			}
		}
		if w.ResourceFloor, w.Err = pipeline.ResourceFloor(b.Nodes, m); w.Err == nil {
			w.Floor, w.Err = b.Floor(opts)
		}
		if plan, err := b.Plan(opts); err == nil {
			w.II = plan.II
		}
		f(w)
	}
	return func() { wholeArmProbe = nil }
}
