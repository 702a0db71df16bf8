package objfile

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
)

// Binary format constants.
const (
	objMagic = "AXPO"
	imgMagic = "AXPX"
	version  = 1
)

type countWriter struct {
	w   byteWriter
	err error
}

// byteWriter is what serialization writes to: a *bufio.Writer, or a
// *bytes.Buffer that needs no buffer of its own.
type byteWriter interface {
	io.Writer
	io.ByteWriter
	io.StringWriter
}

// newCountWriter buffers w unless it already takes bytes and strings one
// at a time; flush completes the write.
func newCountWriter(w io.Writer) *countWriter {
	if bw, ok := w.(byteWriter); ok {
		return &countWriter{w: bw}
	}
	return &countWriter{w: bufio.NewWriter(w)}
}

func (cw *countWriter) flush() error {
	if cw.err != nil {
		return cw.err
	}
	if f, ok := cw.w.(*bufio.Writer); ok {
		return f.Flush()
	}
	return nil
}

func (cw *countWriter) u8(v uint8) {
	if cw.err == nil {
		cw.err = cw.w.WriteByte(v)
	}
}

func (cw *countWriter) u32(v uint32) {
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], v)
	cw.bytesRaw(b[:])
}

func (cw *countWriter) u64(v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	cw.bytesRaw(b[:])
}

func (cw *countWriter) i64(v int64) { cw.u64(uint64(v)) }

func (cw *countWriter) bytesRaw(b []byte) {
	if cw.err == nil {
		_, cw.err = cw.w.Write(b)
	}
}

func (cw *countWriter) bytes(b []byte) {
	cw.u64(uint64(len(b)))
	cw.bytesRaw(b)
}

func (cw *countWriter) str(s string) {
	cw.u64(uint64(len(s)))
	if cw.err == nil {
		_, cw.err = cw.w.WriteString(s)
	}
}

type reader struct {
	r   byteReader
	err error
	// word backs fixed-width reads without a per-read allocation.
	word [8]byte
	// scratch holds a string while it is read.
	scratch []byte
}

// byteReader is what deserialization reads from: the input itself when
// it already reads a byte at a time (a *bytes.Reader does), else a
// *bufio.Reader over it.
type byteReader interface {
	io.Reader
	io.ByteReader
}

func newReader(r io.Reader) *reader {
	if br, ok := r.(byteReader); ok {
		return &reader{r: br}
	}
	return &reader{r: bufio.NewReader(r)}
}

// prealloc bounds a declared element count by what the input can still
// hold at minSize bytes per element, so a corrupt count cannot force a
// large allocation before the read fails.
func (rd *reader) prealloc(n uint64, minSize int) int {
	limit := uint64(1024)
	if l, ok := rd.r.(interface{ Len() int }); ok {
		limit = uint64(l.Len() / minSize)
	}
	return int(min(n, limit))
}

func (rd *reader) u8() uint8 {
	if rd.err != nil {
		return 0
	}
	b, err := rd.r.ReadByte()
	rd.err = truncated(err)
	return b
}

// truncated maps short reads onto the typed sentinel.
func truncated(err error) error {
	if err == io.EOF || err == io.ErrUnexpectedEOF {
		return fmt.Errorf("%w: %v", ErrTruncated, err)
	}
	return err
}

func (rd *reader) u32() uint32 {
	rd.raw(rd.word[:4])
	return binary.LittleEndian.Uint32(rd.word[:4])
}

func (rd *reader) u64() uint64 {
	rd.raw(rd.word[:8])
	return binary.LittleEndian.Uint64(rd.word[:8])
}

func (rd *reader) i64() int64 { return int64(rd.u64()) }

func (rd *reader) raw(b []byte) {
	if rd.err == nil {
		_, err := io.ReadFull(rd.r, b)
		rd.err = truncated(err)
	}
}

// length reads a declared byte count, failing when it exceeds limit.
func (rd *reader) length(limit uint64) uint64 {
	n := rd.u64()
	if rd.err == nil && n > limit {
		rd.err = fmt.Errorf("%w: declared length %d exceeds limit %d", ErrTooLarge, n, limit)
	}
	if rd.err != nil {
		return 0
	}
	return n
}

func (rd *reader) bytes(limit uint64) []byte {
	n := rd.length(limit)
	if n == 0 {
		return nil
	}
	b := make([]byte, n)
	rd.raw(b)
	return b
}

// string reads through scratch, so the string is the only allocation.
func (rd *reader) string() string {
	n := rd.length(1 << 20)
	if uint64(cap(rd.scratch)) < n {
		rd.scratch = make([]byte, n)
	}
	rd.raw(rd.scratch[:n])
	if rd.err != nil {
		return ""
	}
	return string(rd.scratch[:n])
}

// maxBlob bounds any single serialized byte array, as a corruption guard.
const maxBlob = 1 << 30

// Write serializes the object module.
func (o *Object) Write(w io.Writer) error {
	cw := newCountWriter(w)
	cw.bytesRaw([]byte(objMagic))
	cw.u32(version)
	cw.str(o.Name)
	for k := SectionKind(0); k < NumSections; k++ {
		s := &o.Sections[k]
		cw.u64(s.Size)
		cw.bytes(s.Data)
	}
	cw.u64(uint64(len(o.Symbols)))
	for _, sym := range o.Symbols {
		cw.str(sym.Name)
		cw.u8(uint8(sym.Kind))
		cw.u8(uint8(sym.Section))
		cw.u64(sym.Value)
		cw.u64(sym.End)
		cw.u64(sym.Size)
		cw.u64(sym.Align)
		flags := uint8(0)
		if sym.Exported {
			flags |= 1
		}
		if sym.UsesGP {
			flags |= 2
		}
		cw.u8(flags)
	}
	cw.u64(uint64(len(o.Relocs)))
	for _, r := range o.Relocs {
		cw.u8(uint8(r.Kind))
		cw.u8(uint8(r.Section))
		cw.u64(r.Offset)
		cw.u32(uint32(r.Symbol))
		cw.i64(r.Addend)
		cw.u64(r.Extra)
	}
	return cw.flush()
}

// Read deserializes an object module written by Write.
func Read(r io.Reader) (*Object, error) {
	rd := newReader(r)
	magic := rd.word[:4]
	rd.raw(magic)
	if rd.err == nil && string(magic) != objMagic {
		return nil, fmt.Errorf("objfile: %w: bad magic %q", ErrBadMagic, magic)
	}
	if v := rd.u32(); rd.err == nil && v != version {
		return nil, fmt.Errorf("objfile: %w: unsupported version %d", ErrBadMagic, v)
	}
	o := New(rd.string())
	for k := SectionKind(0); k < NumSections; k++ {
		o.Sections[k].Size = rd.u64()
		o.Sections[k].Data = rd.bytes(maxBlob)
	}
	nsym := rd.u64()
	if rd.err == nil && nsym > math.MaxInt32 {
		return nil, fmt.Errorf("objfile: %w: symbol count %d", ErrTooLarge, nsym)
	}
	o.Symbols = make([]Symbol, 0, rd.prealloc(nsym, 43))
	for i := uint64(0); i < nsym && rd.err == nil; i++ {
		var sym Symbol
		sym.Name = rd.string()
		sym.Kind = SymbolKind(rd.u8())
		sym.Section = SectionKind(rd.u8())
		sym.Value = rd.u64()
		sym.End = rd.u64()
		sym.Size = rd.u64()
		sym.Align = rd.u64()
		flags := rd.u8()
		sym.Exported = flags&1 != 0
		sym.UsesGP = flags&2 != 0
		o.Symbols = append(o.Symbols, sym)
	}
	nrel := rd.u64()
	if rd.err == nil && nrel > math.MaxInt32 {
		return nil, fmt.Errorf("objfile: %w: reloc count %d", ErrTooLarge, nrel)
	}
	o.Relocs = make([]Reloc, 0, rd.prealloc(nrel, 30))
	for i := uint64(0); i < nrel && rd.err == nil; i++ {
		var rel Reloc
		rel.Kind = RelocKind(rd.u8())
		rel.Section = SectionKind(rd.u8())
		rel.Offset = rd.u64()
		rel.Symbol = int32(rd.u32())
		rel.Addend = rd.i64()
		rel.Extra = rd.u64()
		o.Relocs = append(o.Relocs, rel)
	}
	if rd.err != nil {
		return nil, fmt.Errorf("objfile: read: %w", rd.err)
	}
	if err := o.Validate(); err != nil {
		return nil, fmt.Errorf("objfile: read: %w", err)
	}
	return o, nil
}
