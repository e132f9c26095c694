package s4rpc

import (
	"encoding/binary"
	"fmt"
	"reflect"

	"s4/internal/core"
	"s4/internal/xdr"
)

// The mechanism under codec.go's tables: what a table row and a struct
// form are, counters carried by name, and the bounds-checked reader.

// field is one row of a message's field table.
type field[M any] struct {
	put func(*xdr.Encoder, *M) bool // appends the field unless it is zero
	get func(*reader, *M)
}

// elem is the wire form of one type; min is the fewest bytes a value
// can occupy, which is what a count of them is checked against. Every
// elem encodes its type's zero value (nil and empty being one), and
// nothing else, as all zero bytes: that is how row tells an absent
// field without knowing the type.
type elem[E any] struct {
	min int
	put func(*xdr.Encoder, *E)
	get func(*reader, *E)
}

// row makes a table row of the field at(m), carried as el.
func row[M, E any](at func(*M) *E, el elem[E]) field[M] {
	return field[M]{
		func(e *xdr.Encoder, m *M) bool {
			mark := len(e.Bytes())
			el.put(e, at(m))
			for _, b := range e.Bytes()[mark:] {
				if b != 0 {
					return true
				}
			}
			e.Reset(e.Bytes()[:mark])
			return false
		},
		func(rd *reader, m *M) { el.get(rd, at(m)) }}
}

// num is a row for an integer carried as a hyper, word for one of at
// most 32 bits carried as a u32, list for count x el (at most max
// elements when max > 0).
func num[M any, N ~int | ~int64 | ~uint64](at func(*M) *N) field[M] {
	return row(at, elem[N]{8,
		func(e *xdr.Encoder, v *N) { e.Uint64(uint64(*v)) },
		func(rd *reader, v *N) { *v = N(rd.Uint64()) }})
}

func word[M any, N ~uint8 | ~uint32](at func(*M) *N) field[M] { return row(at, wordElem[N]()) }

func wordElem[N ~uint8 | ~uint32]() elem[N] {
	return elem[N]{4,
		func(e *xdr.Encoder, v *N) { e.Uint32(uint32(*v)) },
		func(rd *reader, v *N) { *v = narrow[N](rd) }}
}

func list[M, E any](at func(*M) *[]E, el elem[E], max int) field[M] {
	return row(at, elem[[]E]{4,
		func(e *xdr.Encoder, s *[]E) { putList(e, *s, el) },
		func(rd *reader, s *[]E) { *s = getList(rd, el, max) }})
}

var (
	// dataElem is the one opaque that may point into the frame it was
	// decoded from (reader.alias); every other value is copied out.
	dataElem = elem[[]byte]{4,
		func(e *xdr.Encoder, b *[]byte) { e.Opaque(*b) },
		func(rd *reader, b *[]byte) { *b = rd.bytes(rd.alias) }}
	blobElem = elem[[]byte]{4,
		func(e *xdr.Encoder, b *[]byte) { e.Opaque(*b) },
		func(rd *reader, b *[]byte) { *b = rd.bytes(false) }}
	textElem = elem[string]{4,
		func(e *xdr.Encoder, s *string) { e.String(*s) },
		func(rd *reader, s *string) { *s = rd.String(0) }}
	boolElem = elem[bool]{4,
		func(e *xdr.Encoder, b *bool) { e.Bool(*b) },
		func(rd *reader, b *bool) { *b = rd.Bool() }}
)

func putList[E any](e *xdr.Encoder, s []E, el elem[E]) {
	e.Uint32(uint32(len(s)))
	for i := range s {
		el.put(e, &s[i])
	}
}

func getList[E any](rd *reader, el elem[E], max int) []E {
	n := rd.count(el.min, max)
	if n == 0 {
		return nil
	}
	s := make([]E, n)
	for i := 0; i < n && rd.Err() == nil; i++ {
		el.get(rd, &s[i])
	}
	return s
}

// reserve appends a u32 to be filled in by patch once it is known.
func reserve(e *xdr.Encoder) (at int) {
	at = len(e.Bytes())
	e.Uint32(0)
	return at
}

func patch(e *xdr.Encoder, at int, v uint32) { binary.BigEndian.PutUint32(e.Bytes()[at:], v) }

// Counters travel as count x (name string, i64) over a struct's
// non-zero integer fields. The decoder fills the names it knows and
// skips the rest, so a new counter changes no other frame and breaks no
// peer's decoder.
type schema struct {
	fields []counter
	byName map[string]counter
}

type counter struct {
	name   string
	index  int  // of the struct field
	signed bool // int or int64, as opposed to uint64
}

func schemaOf(v any) *schema {
	t := reflect.TypeOf(v)
	sc := &schema{byName: make(map[string]counter)}
	for i := 0; i < t.NumField(); i++ {
		switch f := t.Field(i); f.Type.Kind() {
		case reflect.Int, reflect.Int64, reflect.Uint64:
			c := counter{f.Name, i, f.Type.Kind() != reflect.Uint64}
			sc.fields, sc.byName[c.name] = append(sc.fields, c), c
		}
	}
	return sc
}

var (
	statsSchema  = schemaOf(core.Stats{})
	statusSchema = schemaOf(core.StatusInfo{})
	scrubSchema  = schemaOf(core.ScrubResult{})
)

func putCounters(e *xdr.Encoder, sc *schema, ptr any) {
	v := reflect.ValueOf(ptr).Elem()
	at, n := reserve(e), uint32(0)
	for _, c := range sc.fields {
		var x uint64
		if c.signed {
			x = uint64(v.Field(c.index).Int())
		} else {
			x = v.Field(c.index).Uint()
		}
		if x != 0 {
			e.String(c.name)
			e.Uint64(x)
			n++
		}
	}
	patch(e, at, n)
}

func getCounters(rd *reader, sc *schema, ptr any) {
	v := reflect.ValueOf(ptr).Elem()
	for n := rd.count(12, 0); n > 0 && rd.Err() == nil; n-- {
		name, x := rd.Opaque(0), rd.Uint64()
		if c, ok := sc.byName[string(name)]; !ok {
			continue
		} else if c.signed {
			v.Field(c.index).SetInt(int64(x))
		} else {
			v.Field(c.index).SetUint(x)
		}
	}
}

// ---- reader ----

// reader decodes one frame. Its decoder latches the first error, so
// every later read returns zero without consuming, and finish reports
// it.
type reader struct {
	xdr.Decoder
	// alias lets an aliasable blob point into the frame; the caller
	// then keeps the frame alive and unchanged while the value is used.
	alias bool
}

func newReader(frame []byte, alias bool) reader {
	return reader{Decoder: *xdr.NewDecoder(frame), alias: alias}
}

func (rd *reader) finish() error {
	if rd.Remaining() != 0 {
		rd.Fail(fmt.Errorf("%w: %d trailing bytes", errBadFrame, rd.Remaining()))
	}
	return rd.Err()
}

// narrow reads a u32 that must fit the narrower type it lands in.
func narrow[N ~uint8 | ~uint32](rd *reader) N {
	v := rd.Uint32()
	if uint32(N(v)) != v {
		rd.Fail(fmt.Errorf("%w: %d overflows its field", errBadFrame, v))
	}
	return N(v)
}

// bytes reads an opaque: the decoder's clipped view when alias is set,
// a copy otherwise, and nil when it is empty.
func (rd *reader) bytes(alias bool) []byte {
	b := rd.Opaque(0)
	switch {
	case len(b) == 0:
		return nil
	case alias:
		return b
	}
	return append([]byte(nil), b...)
}

// count reads an element count and refuses one the bytes present cannot
// hold (or above max, when set), so a lying count sizes no allocation.
func (rd *reader) count(minElem, max int) int {
	n := rd.Uint32()
	if uint64(n)*uint64(minElem) > uint64(rd.Remaining()) || (max > 0 && n > uint32(max)) {
		rd.Fail(fmt.Errorf("%w: count %d with %d bytes left", errBadFrame, n, rd.Remaining()))
		return 0
	}
	return int(n)
}
