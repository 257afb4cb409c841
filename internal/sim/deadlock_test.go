package sim

import (
	"strings"
	"testing"

	"softpipe/internal/machine"
	"softpipe/internal/vliw"
)

// haltOnly is a producer that halts without ever sending.
func haltOnly() *vliw.Program {
	return &vliw.Program{
		Name:     "halt-only",
		NumFRegs: 1,
		NumIRegs: 1,
		Instrs:   []vliw.Instr{{Ctl: vliw.Ctl{Kind: vliw.CtlHalt}}},
	}
}

// recvForever waits for input that never comes.
func recvForever() *vliw.Program {
	return &vliw.Program{
		Name:     "recv-forever",
		NumFRegs: 2,
		NumIRegs: 1,
		Instrs: []vliw.Instr{
			{Ops: []vliw.SlotOp{{Class: machine.ClassRecv, Dst: 0}}},
			{Ctl: vliw.Ctl{Kind: vliw.CtlHalt}},
		},
	}
}

// TestArrayDeadlockFailsFast: cell 0 halts without producing, cell 1
// blocks on recv forever.  The array must fail within a few cycles (not
// spin to MaxCycles) and the error must name the blocked cell, the queue
// operation, and the queue occupancy.
func TestArrayDeadlockFailsFast(t *testing.T) {
	m := machine.Warp()
	a := stepArray([]*vliw.Program{haltOnly(), recvForever()}, m, nil)
	a.MaxCycles = 1_000_000
	_, _, err := a.Run()
	if err == nil {
		t.Fatal("deadlocked array ran to completion")
	}
	msg := err.Error()
	if !strings.Contains(msg, "deadlock") {
		t.Fatalf("error does not mention deadlock: %v", err)
	}
	if !strings.Contains(msg, "cell 0 halted") {
		t.Fatalf("error does not report the halted producer: %v", err)
	}
	if !strings.Contains(msg, "cell 1 blocked on recv") {
		t.Fatalf("error does not name the blocked cell and operation: %v", err)
	}
	if !strings.Contains(msg, "0/512") {
		t.Fatalf("error does not report queue occupancy: %v", err)
	}
	// Fail-fast: the deadlock is detectable on the first cycle every
	// live cell stalls; well under 100 cycles, nowhere near MaxCycles.
	if a.cycles > 100 {
		t.Fatalf("deadlock detected only after %d cycles", a.cycles)
	}
}

// TestArrayDeadlockOnFullQueue: cell 1 never receives, so cell 0's sends
// eventually fill the 512-word channel and block.
func TestArrayDeadlockOnFullQueue(t *testing.T) {
	// Producer: infinite loop sending f0.
	producer := &vliw.Program{
		Name:     "send-forever",
		NumFRegs: 1,
		NumIRegs: 1,
		Instrs: []vliw.Instr{
			{Ops: []vliw.SlotOp{{Class: machine.ClassFConst, Dst: 0, FImm: 1}}},
			{Ops: []vliw.SlotOp{{Class: machine.ClassSend, Src: [3]int32{0}}},
				Ctl: vliw.Ctl{Kind: vliw.CtlJump, Target: 1}},
		},
	}
	// Consumer: spins forever without receiving — use an unconditional
	// self-jump.
	consumer := &vliw.Program{
		Name:     "spin",
		NumFRegs: 1,
		NumIRegs: 1,
		Instrs: []vliw.Instr{
			{Ops: []vliw.SlotOp{{Class: machine.ClassRecv, Dst: 0}}},
			{Ops: []vliw.SlotOp{{Class: machine.ClassRecv, Dst: 0}}},
			{Ctl: vliw.Ctl{Kind: vliw.CtlHalt}},
		},
	}
	m := machine.Warp()
	a := stepArray([]*vliw.Program{producer, consumer}, m, nil)
	a.MaxCycles = 1_000_000
	_, _, err := a.Run()
	if err == nil {
		t.Fatal("expected failure")
	}
	msg := err.Error()
	if !strings.Contains(msg, "cell 0 blocked on send") {
		t.Fatalf("error does not report the send-blocked producer: %v", err)
	}
	if !strings.Contains(msg, "512/512") {
		t.Fatalf("error does not report the full queue: %v", err)
	}
	// Queue fills after 512 sends plus the consumer's two receives; the
	// report must arrive shortly after, not at MaxCycles.
	if a.cycles > 3000 {
		t.Fatalf("deadlock detected only after %d cycles", a.cycles)
	}
}
