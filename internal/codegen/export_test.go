package codegen

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
