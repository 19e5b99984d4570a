// Package swapmem implements DejaVuzz's dynamic swappable memory (swapMem):
// the isolation primitive that time-shares one address space between
// instruction sequences with different semantics.
//
// The layout follows the paper's Figure 4: a shared region (execution
// environment: entry stub and trap-handled swap scheduling), a per-DUT
// dedicated region (secrets and mutable operands), a swappable region that
// holds one instruction packet at a time, and a plain data region used by
// secret-encoding gadgets.
//
// Packets are swapped at runtime: each packet ends by raising an exception
// (ecall), the trap hook flushes the instruction cache, loads the next
// packet's image into the swappable region and redirects the core to its
// entry — all without executing architectural instructions that would
// pollute memory-related training state.
package swapmem

import (
	"fmt"

	"dejavuzz/internal/isa"
	"dejavuzz/internal/isasim"
	"dejavuzz/internal/mem"
	"dejavuzz/internal/uarch"
)

// Canonical layout addresses.
const (
	SharedBase    = 0x0000_1000
	SharedSize    = 0x1000
	DedicatedBase = 0x0000_2000
	DedicatedSize = 0x1000
	SwapBase      = 0x0000_4000
	SwapSize      = 0x4000
	DataBase      = 0x0000_8000
	DataSize      = 0x8000

	// GuardAccBase is an unmapped-permission region raising ACCESS faults.
	GuardAccBase = 0x0000_3000
	GuardAccSize = 0x800
	// GuardPageBase raises PAGE faults.
	GuardPageBase = 0x0000_3800
	GuardPageSize = 0x800

	// SecretAddr is where the per-DUT secret lives (dedicated region start).
	SecretAddr = DedicatedBase
	// OperandAddr holds mutable operands the generator patches per run.
	OperandAddr = DedicatedBase + 0x100
	// SwapDoneAddr is the shared-region routine that ends a packet (ecall).
	SwapDoneAddr = SharedBase
)

// PacketKind classifies swap packets for scheduling and reporting.
type PacketKind int

const (
	PacketTriggerTrain PacketKind = iota
	PacketWindowTrain
	PacketTransient
)

func (k PacketKind) String() string {
	switch k {
	case PacketTriggerTrain:
		return "trigger-train"
	case PacketWindowTrain:
		return "window-train"
	case PacketTransient:
		return "transient"
	}
	return "packet"
}

// Packet is one swappable instruction sequence.
type Packet struct {
	Name  string
	Kind  PacketKind
	Image *isa.Program // assembled at SwapBase (or an offset inside the region)
	Entry uint64
	// TrainInsts counts non-padding instructions for the Table 3 overhead
	// accounting; PadInsts counts alignment nops.
	TrainInsts int
	PadInsts   int
}

// InstCount returns total instructions in the packet image.
func (p *Packet) InstCount() int { return len(p.Image.Words) }

// PermUpdate describes a permission change applied between packets (the
// paper's "updates sensitive data permissions" step before the transient
// packet executes).
type PermUpdate struct {
	Region string
	Perm   mem.Perm
}

// Step is one swap-schedule element: run a packet, optionally after applying
// permission updates.
type Step struct {
	Packet  *Packet
	PrePerm []PermUpdate
}

// Schedule is the ordered packet list for one stimulus.
type Schedule struct {
	Steps []Step
}

// Append adds a packet without permission updates.
func (s *Schedule) Append(p *Packet) { s.Steps = append(s.Steps, Step{Packet: p}) }

// AppendWithPerm adds a packet preceded by permission updates.
func (s *Schedule) AppendWithPerm(p *Packet, perms ...PermUpdate) {
	s.Steps = append(s.Steps, Step{Packet: p, PrePerm: perms})
}

// Clone copies the schedule (packets are shared, steps copied).
func (s *Schedule) Clone() *Schedule {
	n := &Schedule{Steps: make([]Step, len(s.Steps))}
	copy(n.Steps, s.Steps)
	return n
}

// WithoutStep returns a copy with step i removed (training reduction).
func (s *Schedule) WithoutStep(i int) *Schedule {
	n := &Schedule{}
	for j, st := range s.Steps {
		if j != i {
			n.Steps = append(n.Steps, st)
		}
	}
	return n
}

// TrainingOverhead sums instruction counts over training packets: total
// (TO, including alignment nops) and effective (ETO, excluding them).
func (s *Schedule) TrainingOverhead() (to, eto int) {
	for _, st := range s.Steps {
		if st.Packet.Kind == PacketTransient {
			continue
		}
		to += st.Packet.TrainInsts + st.Packet.PadInsts
		eto += st.Packet.TrainInsts
	}
	return to, eto
}

// NewSpace builds the canonical swapMem address space with a given secret.
// Secret bytes are taint sources.
func NewSpace(secret []byte) *mem.Space {
	sp := mem.NewSpace()
	sp.MustAddRegion(mem.Region{Name: "shared", Base: SharedBase, Size: SharedSize,
		Perm: mem.PermRead | mem.PermExec})
	sp.MustAddRegion(mem.Region{Name: "dedicated", Base: DedicatedBase, Size: DedicatedSize,
		Perm: mem.PermRead | mem.PermWrite})
	sp.MustAddRegion(mem.Region{Name: "swap", Base: SwapBase, Size: SwapSize,
		Perm: mem.PermRead | mem.PermWrite | mem.PermExec})
	sp.MustAddRegion(mem.Region{Name: "guardacc", Base: GuardAccBase, Size: GuardAccSize,
		Perm: 0, Fault: mem.FaultAccess})
	sp.MustAddRegion(mem.Region{Name: "guardpage", Base: GuardPageBase, Size: GuardPageSize,
		Perm: 0, Fault: mem.FaultPage})
	sp.MustAddRegion(mem.Region{Name: "data", Base: DataBase, Size: DataSize,
		Perm: mem.PermRead | mem.PermWrite})
	loadContents(sp, secret)
	return sp
}

// ResetSpace reinitialises a canonical swapMem space in place for a new run
// with a (possibly different) secret: all region bytes and taints are zeroed,
// permissions restored (undoing any PermUpdate a previous schedule applied),
// and the firmware and secret rewritten. The result is byte-identical to
// NewSpace(secret) — the per-shard execution contexts in internal/core rely
// on this equivalence to reuse one allocation across a whole campaign.
func ResetSpace(sp *mem.Space, secret []byte) {
	sp.Reset()
	loadContents(sp, secret)
}

// loadContents plants the secret (a taint source) and the firmware into a
// zeroed canonical space.
func loadContents(sp *mem.Space, secret []byte) {
	sp.WriteRaw(SecretAddr, secret)
	sp.SetTaint(SecretAddr, len(secret), true)
	installFirmware(sp)
}

// fwImage is the shared region's runtime image, identical for every space
// and assembled once: the swap_done packet terminator at SharedBase and a
// page of executable nop filler (a trailing ecall every 64 bytes from
// SharedBase+0x100, so transient fetches into the shared region decode
// cleanly) used as a landing pad by icache-encoding gadgets.
var fwImage = func() []byte {
	img := make([]byte, SharedSize)
	copy(img, isa.MustAsm(SharedBase, "swap_done:\necall").Bytes())
	filler := isa.MustAsm(SharedBase+0x100, `
		nop
		nop
		nop
		ecall
	`).Bytes()
	for off := 0x100; off+16 <= SharedSize; off += 64 {
		copy(img[off:], filler)
	}
	return img
}()

// installFirmware writes the shared-region runtime image.
func installFirmware(sp *mem.Space) { sp.WriteRaw(SharedBase, fwImage) }

// FlipSecret returns the bit-flipped secret used for the variant DUT —
// the paper's strategy for avoiding identical control values (false
// negatives in diffIFT).
func FlipSecret(secret []byte) []byte {
	out := make([]byte, len(secret))
	for i, b := range secret {
		out[i] = ^b
	}
	return out
}

// Runtime drives one DUT instance through a swap schedule via its trap hook.
type Runtime struct {
	Space *mem.Space
	Sched *Schedule
	Core  *uarch.Core

	idx     int
	started bool
	// Traps counts handled swap traps; ExcTraps counts non-ecall exceptions
	// (useful when diagnosing stimulus bugs).
	Traps    int
	ExcTraps int
	// LoadCycles records the core cycle at which each packet was swapped in;
	// the last entry is the transient packet's start (trace analyses scope
	// to it).
	LoadCycles []int
}

// NewRuntime wires a runtime to a core and schedule. The caller must call
// Start to load the first packet.
func NewRuntime(core *uarch.Core, space *mem.Space, sched *Schedule) *Runtime {
	rt := &Runtime{}
	rt.Rebind(core, space, sched)
	return rt
}

// Rebind rewires an existing runtime for a fresh run: new core/space/schedule
// binding, swap counters zeroed, load-cycle log truncated (capacity kept).
// Rebind leaves the runtime in exactly the state NewRuntime produces; the
// caller must still call Start. A Runtime never mutates its Schedule, so the
// same Schedule value may be bound to several runtimes concurrently.
func (rt *Runtime) Rebind(core *uarch.Core, space *mem.Space, sched *Schedule) {
	rt.Space = space
	rt.Sched = sched
	rt.Core = core
	rt.idx = 0
	rt.started = false
	rt.Traps = 0
	rt.ExcTraps = 0
	rt.LoadCycles = rt.LoadCycles[:0]
	core.TrapHook = rt.onTrap
}

// ClearSwap zeroes the swappable region's bytes and leaves its taint — the
// shared packet-unload step for every runtime that mirrors the swap
// scheduling (the uarch Runtime here, the architectural one in
// internal/isadiff). Only blocks written since they were last zeroed are
// cleared.
func ClearSwap(sp *mem.Space) { sp.ZeroBytes(SwapBase, SwapSize) }

// loadPacket writes the packet image into the swappable region and flushes
// the icache (swapped code must be refetched).
func (rt *Runtime) loadPacket(st Step) uint64 {
	for _, pu := range st.PrePerm {
		if err := rt.Space.SetPerm(pu.Region, pu.Perm); err != nil {
			panic(fmt.Sprintf("swapmem: %v", err))
		}
	}
	// Clear the swappable region, then install the image.
	ClearSwap(rt.Space)
	img := st.Packet.Image
	rt.Space.WriteRaw(img.Base, img.Bytes())
	rt.Core.ICache.FlushAll()
	rt.LoadCycles = append(rt.LoadCycles, rt.Core.Cycle)
	return st.Packet.Entry
}

// TransientStart returns the cycle the final (transient) packet was loaded.
func (rt *Runtime) TransientStart() int {
	if len(rt.LoadCycles) == 0 {
		return 0
	}
	return rt.LoadCycles[len(rt.LoadCycles)-1]
}

// Start loads the first packet and points the core at its entry.
func (rt *Runtime) Start() {
	if len(rt.Sched.Steps) == 0 {
		rt.Core.Restart(SharedBase)
		return
	}
	entry := rt.loadPacket(rt.Sched.Steps[0])
	rt.idx = 1
	rt.started = true
	rt.Core.Restart(entry)
}

// onTrap is the swap scheduler: any trap ends the current packet; remaining
// packets are loaded in order, and the run halts when the schedule drains.
func (rt *Runtime) onTrap(t isasim.Trap) isasim.TrapAction {
	rt.Traps++
	if t.Cause != isasim.CauseEnvCall && t.Cause != isasim.CauseBreakpoint {
		rt.ExcTraps++
	}
	if rt.idx >= len(rt.Sched.Steps) {
		return isasim.TrapAction{Halt: true}
	}
	entry := rt.loadPacket(rt.Sched.Steps[rt.idx])
	rt.idx++
	return isasim.TrapAction{NewPC: entry}
}

// Exhausted reports whether all packets have been scheduled.
func (rt *Runtime) Exhausted() bool { return rt.idx >= len(rt.Sched.Steps) }
