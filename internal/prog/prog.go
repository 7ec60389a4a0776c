package prog

import (
	"encoding/binary"
	"fmt"
	"strings"
)

// Value is a concrete argument value for a compiled type.
type Value struct {
	Type *Type
	// Scalar holds Int/Const/Flags/Len values.
	Scalar uint64
	// Data holds String/Buffer bytes.
	Data []byte
	// Fields holds struct members or array elements.
	Fields []*Value
	// UnionIdx selects the active union option (index into
	// Type.Fields); Fields then has exactly one element.
	UnionIdx int
	// Ptr is the pointee for KindPtr (nil encodes NULL).
	Ptr *Value
	// ResultOf is the index of the earlier call whose return value
	// this resource argument uses; -1 means no binding (an invalid
	// fd is passed).
	ResultOf int
}

// Call is one syscall invocation in a program.
type Call struct {
	Sc   *Syscall
	Args []*Value
}

// Prog is a sequence of calls (the fuzzer's unit of execution).
type Prog struct {
	Calls []*Call
}

// Clone deep-copies the program. A counting pass sizes one arena per
// kind exactly (Value nodes, []*Value slots, Data bytes), so a clone
// costs a fixed handful of allocations however large the program is.
// Cloned nodes are ordinary addressable values; callers may mutate
// them freely.
func (p *Prog) Clone() *Prog {
	var n arenaSize
	for _, call := range p.Calls {
		n.addCall(call)
	}
	a := newCloneArena(n)
	calls := make([]Call, len(p.Calls))
	c := &Prog{Calls: make([]*Call, len(p.Calls))}
	for i, call := range p.Calls {
		calls[i] = Call{Sc: call.Sc, Args: a.cloneAll(call.Args)}
		c.Calls[i] = &calls[i]
	}
	return c
}

// clone deep-copies one call into its own exactly sized arena: the
// unit of copy-on-write mutation (see Gen.own).
func (c *Call) clone() *Call {
	var n arenaSize
	n.addCall(c)
	a := newCloneArena(n)
	return &Call{Sc: c.Sc, Args: a.cloneAll(c.Args)}
}

// arenaSize counts what a deep copy needs from each arena.
type arenaSize struct{ nodes, ptrs, bytes int }

func (n *arenaSize) addCall(c *Call) {
	n.ptrs += len(c.Args)
	for _, a := range c.Args {
		n.add(a)
	}
}

func (n *arenaSize) add(v *Value) {
	if v == nil {
		return
	}
	n.nodes++
	n.ptrs += len(v.Fields)
	n.bytes += len(v.Data)
	for _, f := range v.Fields {
		n.add(f)
	}
	n.add(v.Ptr)
}

// cloneArena hands out Value nodes, []*Value slots and Data bytes
// from slabs sized by a counting pass. Slices are capped at their own
// length, so a later append reallocates instead of clobbering a
// neighbor.
type cloneArena struct {
	nodes []Value
	ptrs  []*Value
	data  []byte
}

func newCloneArena(n arenaSize) cloneArena {
	return cloneArena{
		nodes: make([]Value, n.nodes),
		ptrs:  make([]*Value, n.ptrs),
		data:  make([]byte, n.bytes),
	}
}

func (a *cloneArena) cloneAll(vs []*Value) []*Value {
	if len(vs) == 0 {
		return nil
	}
	out := a.ptrs[:len(vs):len(vs)]
	a.ptrs = a.ptrs[len(vs):]
	for i, v := range vs {
		out[i] = v.cloneInto(a)
	}
	return out
}

func (v *Value) cloneInto(a *cloneArena) *Value {
	if v == nil {
		return nil
	}
	c := &a.nodes[0]
	a.nodes = a.nodes[1:]
	*c = *v
	c.Data = nil
	if n := len(v.Data); n > 0 {
		c.Data = a.data[:n:n]
		a.data = a.data[n:]
		copy(c.Data, v.Data)
	}
	c.Fields = a.cloneAll(v.Fields)
	c.Ptr = v.Ptr.cloneInto(a)
	return c
}

// String renders the program in a syz-prog-like text form.
func (p *Prog) String() string {
	var b strings.Builder
	for i, c := range p.Calls {
		fmt.Fprintf(&b, "r%d = %s(", i, c.Sc.Name)
		for j, a := range c.Args {
			if j > 0 {
				b.WriteString(", ")
			}
			b.WriteString(a.String())
		}
		b.WriteString(")\n")
	}
	return b.String()
}

// String renders a value compactly.
func (v *Value) String() string {
	if v == nil {
		return "nil"
	}
	switch v.Type.Kind {
	case KindInt, KindConst, KindFlags, KindLen:
		return fmt.Sprintf("0x%x", v.Scalar)
	case KindResource:
		if v.ResultOf >= 0 {
			return fmt.Sprintf("r%d", v.ResultOf)
		}
		return "badfd"
	case KindString:
		return fmt.Sprintf("&%q", string(v.Data))
	case KindBuffer:
		return fmt.Sprintf("&[%d bytes]", len(v.Data))
	case KindPtr:
		if v.Ptr == nil {
			return "NULL"
		}
		return "&" + v.Ptr.String()
	case KindStruct, KindUnion:
		parts := make([]string, len(v.Fields))
		for i, f := range v.Fields {
			parts[i] = f.String()
		}
		return "{" + strings.Join(parts, ", ") + "}"
	case KindArray:
		return fmt.Sprintf("[%d elems]", len(v.Fields))
	}
	return "?"
}

// FixupLens computes every KindLen field from its sibling target:
// element count for arrays, byte size otherwise. It must run after
// any structural mutation and before encoding.
func (c *Call) FixupLens() { c.fixupLens(true) }

// lensStale reports whether FixupLens would change any length field
// of c. It never writes, so it is safe on calls shared with other
// programs.
func (c *Call) lensStale() bool { return c.fixupLens(false) }

// fixupLens recomputes every length field of c, writing the results
// when write is set, and reports whether any differed from the value
// it held. Without write it stops at the first difference.
func (c *Call) fixupLens(write bool) bool {
	stale := fixupGroup(c.Sc.Args, c.Args, write)
	for _, a := range c.Args {
		if stale && !write {
			return true
		}
		stale = a.fixupLensRec(write) || stale
	}
	return stale
}

func (v *Value) fixupLensRec(write bool) bool {
	if v == nil {
		return false
	}
	stale := false
	switch v.Type.Kind {
	case KindPtr:
		return v.Ptr.fixupLensRec(write)
	case KindStruct:
		stale = fixupGroup(v.Type.Fields, v.Fields, write)
	case KindUnion, KindArray:
	default:
		return false
	}
	for _, f := range v.Fields {
		if stale && !write {
			return true
		}
		stale = f.fixupLensRec(write) || stale
	}
	return stale
}

// fixupGroup resolves the len fields among one group of siblings: a
// call's arguments or one struct instance's fields.
func fixupGroup(fields []Field, vals []*Value, write bool) bool {
	stale := false
	for i, f := range fields {
		if f.Type.Kind != KindLen || i >= len(vals) {
			continue
		}
		for j, g := range fields {
			if g.Name != f.Type.LenTarget || j >= len(vals) {
				continue
			}
			n := measure(vals[j], f.Type.InBytes)
			if vals[i].Scalar != n {
				stale = true
				if !write {
					return true
				}
				vals[i].Scalar = n
			}
		}
	}
	return stale
}

// measure computes the len semantics for a target value: element
// count for arrays, byte size for everything else (and always bytes
// for bytesize). Pointers measure their pointee.
func measure(v *Value, inBytes bool) uint64 {
	if v == nil {
		return 0
	}
	switch v.Type.Kind {
	case KindPtr:
		return measure(v.Ptr, inBytes)
	case KindArray:
		if inBytes {
			return uint64(v.encodedSize())
		}
		return uint64(len(v.Fields))
	case KindString, KindBuffer:
		return uint64(len(v.Data))
	default:
		return uint64(v.encodedSize())
	}
}

// encodedSize is len(v.Encode()) without encoding: the same walk as
// encodeTo, with the same widths, alignment and padding.
func (v *Value) encodedSize() int {
	if v == nil {
		return 0
	}
	switch v.Type.Kind {
	case KindInt, KindConst, KindFlags, KindLen, KindResource:
		if v.Type.Bytes == 0 {
			return 4
		}
		return v.Type.Bytes
	case KindString:
		return len(v.Data) + 1
	case KindBuffer:
		return len(v.Data)
	case KindPtr:
		return 8
	case KindArray:
		size := 0
		for _, f := range v.Fields {
			size += f.encodedSize()
		}
		return size
	case KindStruct:
		size := 0
		for i, f := range v.Fields {
			var ft *Type
			if i < len(v.Type.Fields) {
				ft = v.Type.Fields[i].Type
			} else {
				ft = f.Type
			}
			size = alignUp(size, ft.align()) + f.encodedSize()
		}
		return alignUp(size, v.Type.align())
	case KindUnion:
		size := 0
		if len(v.Fields) > 0 {
			size = v.Fields[0].encodedSize()
		}
		if want := v.Type.Size(); size < want {
			size = want
		}
		return size
	}
	return 0
}

func alignUp(n, a int) int {
	if r := n % a; r != 0 {
		n += a - r
	}
	return n
}

// Encode serializes the value to raw bytes under C layout rules
// (little-endian scalars, natural alignment, NUL-terminated strings).
// Pointers nested inside payloads encode as zero (the virtual kernel
// does not chase nested user pointers).
func (v *Value) Encode() []byte {
	var buf []byte
	return v.encodeTo(buf)
}

func (v *Value) encodeTo(buf []byte) []byte {
	if v == nil {
		return buf
	}
	switch v.Type.Kind {
	case KindInt, KindConst, KindFlags, KindLen, KindResource:
		n := v.Type.Bytes
		if n == 0 {
			n = 4
		}
		var tmp [8]byte
		binary.LittleEndian.PutUint64(tmp[:], v.Scalar)
		return append(buf, tmp[:n]...)
	case KindString:
		buf = append(buf, v.Data...)
		return append(buf, 0)
	case KindBuffer:
		return append(buf, v.Data...)
	case KindPtr:
		var tmp [8]byte
		return append(buf, tmp[:]...)
	case KindArray:
		for _, f := range v.Fields {
			buf = f.encodeTo(buf)
		}
		return buf
	case KindStruct:
		start := len(buf)
		for i, f := range v.Fields {
			var ft *Type
			if i < len(v.Type.Fields) {
				ft = v.Type.Fields[i].Type
			} else {
				ft = f.Type
			}
			a := ft.align()
			for (len(buf)-start)%a != 0 {
				buf = append(buf, 0)
			}
			buf = f.encodeTo(buf)
		}
		a := v.Type.align()
		for (len(buf)-start)%a != 0 {
			buf = append(buf, 0)
		}
		return buf
	case KindUnion:
		start := len(buf)
		if len(v.Fields) > 0 {
			buf = v.Fields[0].encodeTo(buf)
		}
		want := v.Type.Size()
		for len(buf)-start < want {
			buf = append(buf, 0)
		}
		return buf
	}
	return buf
}

// ForEachValue walks every value in the call (args and nested).
func (c *Call) ForEachValue(fn func(*Value)) {
	for _, a := range c.Args {
		a.walk(fn)
	}
}

func (v *Value) walk(fn func(*Value)) {
	if v == nil {
		return
	}
	fn(v)
	if v.Ptr != nil {
		v.Ptr.walk(fn)
	}
	for _, f := range v.Fields {
		f.walk(fn)
	}
}
