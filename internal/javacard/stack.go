package javacard

import (
	"errors"
	"fmt"

	"repro/internal/core"
	"repro/internal/ecbus"
	"repro/internal/sim"
)

// SoftStack is the pure functional operand stack of the untimed model
// (Fig. 7a): no bus, no time, no energy.
type SoftStack struct {
	data []int16
}

// Push implements Stack.
func (s *SoftStack) Push(v int16) error {
	s.data = append(s.data, v)
	return nil
}

// Pop implements Stack.
func (s *SoftStack) Pop() (int16, error) {
	if len(s.data) == 0 {
		return 0, errors.New("stack: underflow")
	}
	v := s.data[len(s.data)-1]
	s.data = s.data[:len(s.data)-1]
	return v, nil
}

// Reset implements Stack.
func (s *SoftStack) Reset() { s.data = s.data[:0] }

// HardStack SFR offsets. The register file deliberately offers several
// redundant access protocols — byte-staged, halfword, packed word and
// burst — because the case study explores which of them gives the best
// time/energy trade-off.
const (
	RegCmd    = 0x00 // W: 1 = push staged data, 2 = pop to latch, 3 = reset
	RegDataHi = 0x04 // W (8-bit): staged data high byte
	RegDataLo = 0x08 // W (8-bit): staged data low byte
	RegPopHi  = 0x0C // R (8-bit): pop latch high byte
	RegPopLo  = 0x10 // R (8-bit): pop latch low byte
	RegPush16 = 0x14 // W (16-bit): immediate push
	RegPop16  = 0x18 // R (16-bit): immediate pop
	RegPacked = 0x1C // W (32-bit): bit16 set = push, low 16 bits data
	RegDepth  = 0x20 // R: current depth
	RegBurst  = 0x30 // W (16-byte burst): four words, one push each
)

// HardStackSize is the hardware stack capacity in entries.
const HardStackSize = 256

// HardStack is the hardware operand stack slave of the refined model:
// its register decode is the paper's "slave adapter", restoring stack
// interface calls from bus transactions. Protocol violations (underflow,
// overflow, unmapped offsets) surface as slave-side bus errors.
type HardStack struct {
	cfg ecbus.SlaveConfig

	data  []int16
	stage uint16 // byte-staged push data
	latch uint16 // byte-wise pop latch

	Pushes uint64
	Pops   uint64
}

// NewHardStack creates the stack slave at base.
func NewHardStack(name string, base uint64) *HardStack {
	return &HardStack{cfg: ecbus.SlaveConfig{
		Name: name, Base: base, Size: 0x40,
		Readable: true, Writable: true,
	}}
}

// Config implements ecbus.Slave.
func (h *HardStack) Config() ecbus.SlaveConfig { return h.cfg }

func (h *HardStack) push(v int16) bool {
	if len(h.data) >= HardStackSize {
		return false
	}
	h.data = append(h.data, v)
	h.Pushes++
	return true
}

func (h *HardStack) pop() (int16, bool) {
	if len(h.data) == 0 {
		return 0, false
	}
	v := h.data[len(h.data)-1]
	h.data = h.data[:len(h.data)-1]
	h.Pops++
	return v, true
}

// ReadWord implements ecbus.Slave.
func (h *HardStack) ReadWord(addr uint64, _ ecbus.Width) (uint32, bool) {
	switch addr - h.cfg.Base {
	case RegPopHi:
		return uint32(h.latch >> 8), true
	case RegPopLo:
		return uint32(h.latch & 0xFF), true
	case RegPop16:
		v, ok := h.pop()
		if !ok {
			return 0, false
		}
		return uint32(uint16(v)), true
	case RegPacked:
		v, ok := h.pop()
		if !ok {
			return 0, false
		}
		return uint32(uint16(v)), true
	case RegDepth:
		return uint32(len(h.data)), true
	case RegCmd, RegDataHi, RegDataLo, RegPush16:
		return 0, true
	}
	return 0, false
}

// WriteWord implements ecbus.Slave.
func (h *HardStack) WriteWord(addr uint64, data uint32, w ecbus.Width) bool {
	off := addr - h.cfg.Base
	switch off {
	case RegCmd:
		switch data & 0xFF {
		case 1:
			return h.push(int16(h.stage))
		case 2:
			v, ok := h.pop()
			if !ok {
				return false
			}
			h.latch = uint16(v)
			return true
		case 3:
			h.data = h.data[:0]
			return true
		}
		return false
	case RegDataHi:
		h.stage = h.stage&0x00FF | uint16(data&0xFF)<<8
		return true
	case RegDataLo:
		h.stage = h.stage&0xFF00 | uint16(data&0xFF)
		return true
	case RegPush16:
		return h.push(int16(data & 0xFFFF))
	case RegPacked:
		if data&0x10000 == 0 {
			return false
		}
		return h.push(int16(data & 0xFFFF))
	default:
		if off >= RegBurst && off < RegBurst+16 {
			// each burst beat pushes one value
			return h.push(int16(data & 0xFFFF))
		}
	}
	return false
}

// AccessEnergy implements ecbus.EnergyReporter: the stack array access.
func (h *HardStack) AccessEnergy(ecbus.Kind) float64 { return 0.7e-12 }

// Organization selects the SFR protocol the master adapter uses — the
// exploration axis of the case study.
type Organization int

// SFR organizations.
const (
	OrgByte   Organization = iota // staged bytes + command register (3 writes/push)
	OrgHalf                       // one 16-bit access per operation
	OrgPacked                     // one 32-bit packed access per operation
	OrgBurst                      // pushes batched four at a time into one burst
)

// String names the organization.
func (o Organization) String() string {
	switch o {
	case OrgByte:
		return "byte-staged"
	case OrgHalf:
		return "halfword"
	case OrgPacked:
		return "packed-word"
	case OrgBurst:
		return "burst4"
	default:
		return fmt.Sprintf("Organization(%d)", int(o))
	}
}

// Organizations lists all SFR protocols.
var Organizations = []Organization{OrgByte, OrgHalf, OrgPacked, OrgBurst}

// MasterAdapter implements Stack by translating interface calls into bus
// transactions (Fig. 7b, "MA"): the untimed interpreter calls it, and
// its blocking master advances the clocked bus simulation until each
// transaction completes.
type MasterAdapter struct {
	*core.BlockingMaster
	base uint64
	org  Organization

	pend []int16 // burst batching buffer (OrgBurst)
}

// NewMasterAdapter binds a stack adapter to a bus and a HardStack base
// address, reacting to bus errors with retry.
func NewMasterAdapter(k *sim.Kernel, bus core.Initiator, base uint64, org Organization, retry core.RetryPolicy) *MasterAdapter {
	return &MasterAdapter{BlockingMaster: core.NewBlockingMaster(k, bus, retry), base: base, org: org}
}

// do runs one single-word bus transaction to completion.
func (a *MasterAdapter) do(kind ecbus.Kind, addr uint64, w ecbus.Width, data uint32) (uint32, error) {
	tr, err := a.Single(kind, addr, w, data)
	if err != nil {
		return 0, err
	}
	return a.complete(tr)
}

// complete runs tr to completion and returns its first data word.
func (a *MasterAdapter) complete(tr *ecbus.Transaction) (uint32, error) {
	switch a.Run(tr) {
	case ecbus.StateOK:
		return tr.Data[0], nil
	case ecbus.StateError:
		return 0, fmt.Errorf("stack adapter: bus error at %#x after %d retries", tr.Addr, tr.Retries)
	}
	return 0, errors.New("stack adapter: transaction never completed")
}

// Push implements Stack over the configured SFR protocol.
func (a *MasterAdapter) Push(v int16) error {
	switch a.org {
	case OrgByte:
		if _, err := a.do(ecbus.Write, a.base+RegDataHi, ecbus.W8, uint32(uint16(v)>>8)); err != nil {
			return err
		}
		if _, err := a.do(ecbus.Write, a.base+RegDataLo, ecbus.W8, uint32(uint16(v)&0xFF)); err != nil {
			return err
		}
		_, err := a.do(ecbus.Write, a.base+RegCmd, ecbus.W8, 1)
		return err
	case OrgHalf:
		_, err := a.do(ecbus.Write, a.base+RegPush16, ecbus.W16, uint32(uint16(v)))
		return err
	case OrgPacked:
		_, err := a.do(ecbus.Write, a.base+RegPacked, ecbus.W32, 0x10000|uint32(uint16(v)))
		return err
	case OrgBurst:
		a.pend = append(a.pend, v)
		if len(a.pend) == 4 {
			return a.Flush()
		}
		return nil
	default:
		return fmt.Errorf("stack adapter: unknown organization %v", a.org)
	}
}

// Flush forces out any batched burst pushes (call at workload end): a
// full batch as one burst write, a partial one as halfword pushes.
func (a *MasterAdapter) Flush() error {
	if len(a.pend) == 0 {
		return nil
	}
	if len(a.pend) == 4 {
		tr, err := a.Burst(ecbus.Write, a.base+RegBurst)
		if err != nil {
			return err
		}
		for i, v := range a.pend {
			tr.Data[i] = uint32(uint16(v))
		}
		a.pend = a.pend[:0]
		_, err = a.complete(tr)
		return err
	}
	vals := append([]int16(nil), a.pend...)
	a.pend = a.pend[:0]
	for _, v := range vals {
		if _, err := a.do(ecbus.Write, a.base+RegPush16, ecbus.W16, uint32(uint16(v))); err != nil {
			return err
		}
	}
	return nil
}

// Pop implements Stack.
func (a *MasterAdapter) Pop() (int16, error) {
	if a.org == OrgBurst {
		if err := a.Flush(); err != nil {
			return 0, err
		}
	}
	switch a.org {
	case OrgByte:
		if _, err := a.do(ecbus.Write, a.base+RegCmd, ecbus.W8, 2); err != nil {
			return 0, err
		}
		hi, err := a.do(ecbus.Read, a.base+RegPopHi, ecbus.W8, 0)
		if err != nil {
			return 0, err
		}
		lo, err := a.do(ecbus.Read, a.base+RegPopLo, ecbus.W8, 0)
		if err != nil {
			return 0, err
		}
		return int16(uint16(hi&0xFF)<<8 | uint16(lo&0xFF)), nil
	case OrgPacked:
		v, err := a.do(ecbus.Read, a.base+RegPacked, ecbus.W32, 0)
		return int16(uint16(v)), err
	default: // OrgHalf, OrgBurst
		v, err := a.do(ecbus.Read, a.base+RegPop16, ecbus.W16, 0)
		return int16(uint16(v)), err
	}
}

// Reset implements Stack.
func (a *MasterAdapter) Reset() {
	a.pend = a.pend[:0]
	_, _ = a.do(ecbus.Write, a.base+RegCmd, ecbus.W8, 3)
}
