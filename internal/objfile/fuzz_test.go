package objfile

import (
	"bytes"
	"errors"
	"testing"
)

// typedDecodeError reports whether err belongs to one of the package's
// sentinel classes. Every rejection of malformed input must be classifiable;
// an unclassified error means a check bypassed the typed-error contract.
func typedDecodeError(err error) bool {
	for _, sentinel := range []error{
		ErrTruncated, ErrBadMagic, ErrBadSymbol, ErrBadReloc, ErrBadSection, ErrTooLarge,
	} {
		if errors.Is(err, sentinel) {
			return true
		}
	}
	return false
}

// FuzzObjfileRead: Read must never panic, anything it accepts must satisfy
// Validate and survive a write/read round trip.
func FuzzObjfileRead(f *testing.F) {
	var buf bytes.Buffer
	if err := sampleObject().Write(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte(objMagic))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		obj, err := Read(bytes.NewReader(data))
		if err != nil {
			return
		}
		if verr := obj.Validate(); verr != nil {
			t.Fatalf("Read returned an invalid object: %v", verr)
		}
		var out bytes.Buffer
		if err := obj.Write(&out); err != nil {
			t.Fatalf("accepted object does not re-serialize: %v", err)
		}
		if _, err := Read(bytes.NewReader(out.Bytes())); err != nil {
			t.Fatalf("round trip of accepted object rejected: %v", err)
		}
	})
}

// FuzzImageRead: same contract for executables.
func FuzzImageRead(f *testing.F) {
	var buf bytes.Buffer
	if err := sampleImage().Write(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	var sparse bytes.Buffer
	if err := sparseImage().Write(&sparse); err != nil {
		f.Fatal(err)
	}
	f.Add(sparse.Bytes())
	f.Add([]byte(imgMagic))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		im, err := ReadImage(bytes.NewReader(data))
		if err != nil {
			return
		}
		if verr := im.Validate(); verr != nil {
			t.Fatalf("ReadImage returned an invalid image: %v", verr)
		}
		var out bytes.Buffer
		if err := im.Write(&out); err != nil {
			t.Fatalf("accepted image does not re-serialize: %v", err)
		}
	})
}

// TestReadErrorsAreTyped pins the typed-error contract on hand-picked
// malformed inputs (the minimized fuzz corpus exercises the rest).
func TestReadErrorsAreTyped(t *testing.T) {
	var buf bytes.Buffer
	if err := sampleObject().Write(&buf); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()

	if _, err := Read(bytes.NewReader(full[:len(full)/2])); !errors.Is(err, ErrTruncated) {
		t.Errorf("truncated input: got %v, want ErrTruncated", err)
	}
	if _, err := Read(bytes.NewReader([]byte("nope"))); !errors.Is(err, ErrBadMagic) {
		t.Errorf("bad magic: got %v, want ErrBadMagic", err)
	}
	if _, err := ReadImage(bytes.NewReader([]byte("nope"))); !errors.Is(err, ErrBadMagic) {
		t.Errorf("bad image magic: got %v, want ErrBadMagic", err)
	}

	cases := []struct {
		name   string
		mutate func(*Object)
		want   error
	}{
		{"negative refquad symbol", func(o *Object) { o.Relocs[0].Symbol = -1 }, ErrBadReloc},
		{"literal slot out of range", func(o *Object) { o.Relocs[2].Extra = 99 }, ErrBadReloc},
		{"gpdisp partner outside text", func(o *Object) { o.Relocs[4].Extra = 1 << 20 }, ErrBadReloc},
		{"non-power-of-two align", func(o *Object) { o.Symbols[3].Align = 24 }, ErrBadSymbol},
		{"huge common", func(o *Object) { o.Symbols[3].Size = 1 << 40 }, ErrTooLarge},
		{"huge bss", func(o *Object) { o.Sections[SecBss].Size = 1 << 40 }, ErrTooLarge},
		{"data symbol overflow", func(o *Object) {
			o.Symbols[1].Value = ^uint64(0) - 1
			o.Symbols[1].Size = 4
		}, ErrBadSymbol},
	}
	for _, c := range cases {
		o := sampleObject()
		c.mutate(o)
		err := o.Validate()
		if !errors.Is(err, c.want) {
			t.Errorf("%s: got %v, want %v", c.name, err, c.want)
		}
		if err != nil && !typedDecodeError(err) {
			t.Errorf("%s: error %v not classifiable by sentinel", c.name, err)
		}
	}
}
