package s4rpc

import (
	"bytes"
	"encoding/hex"
	"errors"
	"net"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"s4/internal/core"
	"s4/internal/harness/leakcheck"
	"s4/internal/types"
	"s4/internal/xdr"
)

// TestGoldenVectors pins the layout byte for byte, so it cannot drift
// silently: each vector is a whole frame, length prefix included, laid
// out here a field to a line as codec.go and DESIGN.md §10 describe it.
func TestGoldenVectors(t *testing.T) {
	mac := bytes.Repeat([]byte{0xAB}, macLen)
	vectors := []struct {
		name  string
		frame []byte
		want  string
	}{
		{"hello",
			frameOf(t, putHello(&Hello{Client: 7, User: 100, MAC: mac, Admin: true, Session: 0x0102030405060708})), `
			0000003c                  length 60
			53345201                  magic "S4R", version 1
			00000007 00000064         client, user
			00000001                  admin
			0102030405060708          session
			00000020 ` + strings.Repeat("ab", macLen) + ` MAC`},
		{"write-request",
			requestFrame(t, &Request{Op: types.OpWrite, ID: 9, Obj: 0x11, Offset: 4096, Data: []byte("hello")}), `
			0000002c                  length 44
			00000004 00000015         op write; mask: obj, offset, data
			0000000000000009          ID
			0000000000000011          obj
			0000000000001000          offset
			00000005 68656c6c6f000000 data, padded`},
		{"read-reply",
			responseFrame(t, &Response{Op: types.OpRead, ID: 10, Data: []byte("payload!")}), `
			0000001c                  length 28
			00000003 00000004         op read; mask: data
			000000000000000a          ID
			00000008 7061796c6f616421 data`},
		{"busy-reply",
			responseFrame(t, &Response{Op: types.OpSync, ID: 11, Errno: errnoBusy, RetryAfter: busyRetryAfter}), `
			0000001c                  length 28
			00000010 00000003         op sync; mask: errno, retry-after
			000000000000000b          ID
			00000012                  errno 18 (ErrBusy)
			0000000001312d00          retry after 20 ms`},
		{"batch-request",
			requestFrame(t, &Request{Op: types.OpBatch, ID: 12, Batch: []Request{
				{Op: types.OpSetAttr, Obj: 0x11, Attr: []byte("meta")},
				{Op: types.OpSync},
			}}), `
			00000044                  length 68
			00000019 00010000         op batch; mask: batch
			000000000000000c          ID
			00000002                  two entries
			00000008 00000101         op setattr; mask: obj, attr
			0000000000000000          ID
			0000000000000011          obj
			00000004 6d657461         attr
			00000010 00000000         op sync; empty mask
			0000000000000000          ID`},
	}
	for _, v := range vectors {
		var want strings.Builder
		for _, line := range strings.Split(v.want, "\n") {
			for _, word := range strings.Fields(line) {
				if _, err := hex.DecodeString(word); err != nil {
					break // the rest of the line is commentary
				}
				want.WriteString(word)
			}
		}
		if got := hex.EncodeToString(v.frame); got != want.String() {
			t.Errorf("%s:\n got %s\nwant %s", v.name, got, want.String())
		}
	}
}

// fill sets every field under v to a distinct non-zero value: numbers
// count up, strings and byte slices are non-empty, other slices get two
// elements and maps one entry. Recursive types (a message's Batch) stop
// one level down, which is as deep as the protocol goes.
func fill(v reflect.Value, next *int, depth int) {
	*next++
	n := 1 + *next%250 // fits the narrowest field, never zero
	switch v.Kind() {
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Int, reflect.Int64:
		v.SetInt(int64(n))
	case reflect.Uint8, reflect.Uint32, reflect.Uint64:
		v.SetUint(uint64(n))
	case reflect.String:
		v.SetString("s" + string(rune('a'+n%26)))
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			fill(v.Field(i), next, depth)
		}
	case reflect.Slice:
		if v.Type().Elem().Kind() == reflect.Uint8 {
			v.SetBytes([]byte{byte(n), 0, byte(n)}) // needs padding, holds a zero
			return
		}
		if t := v.Type().Elem(); t == reflect.TypeOf(Request{}) || t == reflect.TypeOf(Response{}) {
			if depth++; depth > 1 {
				return
			}
		}
		v.Set(reflect.MakeSlice(v.Type(), 2, 2))
		for i := 0; i < 2; i++ {
			fill(v.Index(i), next, depth)
		}
	case reflect.Map:
		v.Set(reflect.MakeMap(v.Type()))
		key, val := reflect.New(v.Type().Key()).Elem(), reflect.New(v.Type().Elem()).Elem()
		key.SetUint(uint64(types.OpRead))
		fill(val, next, depth)
		v.SetMapIndex(key, val)
	default:
		panic("fill: the wire structs grew a field of kind " + v.Kind().String() + "; teach the codec and this test about it")
	}
}

func fullRequest() Request {
	var r Request
	var n int
	fill(reflect.ValueOf(&r).Elem(), &n, 0)
	r.Op = types.OpBatch
	for i := range r.Batch {
		r.Batch[i].Op = types.OpWrite
	}
	return r
}

func fullResponse() Response {
	var r Response
	var n int
	fill(reflect.ValueOf(&r).Elem(), &n, 0)
	r.Op = types.OpBatch
	for i := range r.Batch {
		r.Batch[i].Op = types.OpRead
	}
	return r
}

// sampleRequests holds one well-formed request per op the server
// dispatches, against an object obj with a partition named "part".
func sampleRequests(obj types.ObjectID) map[types.Op]Request {
	acl := []types.ACLEntry{{User: 100, Perm: types.PermAll}, {User: types.EveryoneID, Perm: types.PermRead}}
	return map[types.Op]Request{
		types.OpCreate:        {Op: types.OpCreate, ACL: acl, Attr: []byte("attr")},
		types.OpDelete:        {Op: types.OpDelete, Obj: obj + 1000},
		types.OpRead:          {Op: types.OpRead, Obj: obj, Offset: 1, Length: 64, At: types.TimeNowest, User: 100},
		types.OpWrite:         {Op: types.OpWrite, Obj: obj, Offset: 3, Data: []byte("written")},
		types.OpAppend:        {Op: types.OpAppend, Obj: obj, Data: []byte("appended")},
		types.OpTruncate:      {Op: types.OpTruncate, Obj: obj, Length: 5},
		types.OpGetAttr:       {Op: types.OpGetAttr, Obj: obj, At: types.TimeNowest},
		types.OpSetAttr:       {Op: types.OpSetAttr, Obj: obj, Attr: []byte("new attr")},
		types.OpGetACLByUser:  {Op: types.OpGetACLByUser, Obj: obj, Offset: 100, At: types.TimeNowest},
		types.OpGetACLByIndex: {Op: types.OpGetACLByIndex, Obj: obj, ACLIdx: 1, At: types.TimeNowest},
		types.OpSetACL:        {Op: types.OpSetACL, Obj: obj, ACLIdx: 2, ACL: acl[:1]},
		types.OpPCreate:       {Op: types.OpPCreate, Name: "part2", Obj: obj},
		types.OpPDelete:       {Op: types.OpPDelete, Name: "part2"},
		types.OpPList:         {Op: types.OpPList, At: types.TimeNowest},
		types.OpPMount:        {Op: types.OpPMount, Name: "part", At: types.TimeNowest},
		types.OpSync:          {Op: types.OpSync, Obj: obj},
		types.OpFlush:         {Op: types.OpFlush, From: 1, To: 2},
		types.OpFlushO:        {Op: types.OpFlushO, Obj: obj, From: 1, To: 2},
		types.OpSetWindow:     {Op: types.OpSetWindow, Window: time.Hour},
		types.OpListVersions:  {Op: types.OpListVersions, Obj: obj, Max: 8},
		types.OpRevert:        {Op: types.OpRevert, Obj: obj, At: types.TimeNowest},
		types.OpAuditRead:     {Op: types.OpAuditRead, Seq: 1, Max: 16},
		types.OpStatus:        {Op: types.OpStatus},
		types.OpStats:         {Op: types.OpStats},
		types.OpScrub:         {Op: types.OpScrub},
		types.OpSetPolicy:     {Op: types.OpSetPolicy, Obj: obj, Policy: types.Policy{Window: time.Minute, Mode: types.ModeOnClose, DeltaEnabled: true}},
		types.OpGetPolicy:     {Op: types.OpGetPolicy, Obj: obj},
		types.OpBatch: {Op: types.OpBatch, Batch: []Request{
			{Op: types.OpWrite, Obj: obj, Data: []byte("in a batch")},
			{Op: types.OpGetAttr, Obj: obj, At: types.TimeNowest},
			{Op: types.OpSync},
		}},
	}
}

// sampleResponses are a few of the ordinary reply shapes and, for every
// field of Response, a reply carrying just that field: small inputs that
// between them reach every decoder, for the fuzz corpus.
func sampleResponses() []Response {
	out := []Response{
		{Op: types.OpSync, ID: 4},
		{Op: types.OpWrite, ID: 5, Errno: errnoThrottled, RetryAfter: time.Second},
		{Op: types.OpBatch, ID: 6, Batch: []Response{{Op: types.OpAppend, Offset: 9}, {Op: types.OpGetPolicy, PolicyOwn: true}}},
	}
	full := reflect.ValueOf(fullResponse())
	for i := 0; i < full.NumField(); i++ {
		if full.Type().Field(i).Name == "Batch" {
			continue // two whole replies: covered in small above
		}
		var r Response
		reflect.ValueOf(&r).Elem().Field(i).Set(full.Field(i))
		out = append(out, r)
	}
	return out
}

func roundTripRequest(t *testing.T, r *Request) {
	t.Helper()
	var got Request
	if err := requestLayout.decode(requestFrame(t, r)[frameHdrLen:], &got, false); err != nil {
		t.Fatalf("%v request: %v", r.Op, err)
	}
	if !reflect.DeepEqual(*r, got) {
		t.Fatalf("%v request changed on the wire:\nsent %+v\n got %+v", r.Op, *r, got)
	}
}

func roundTripResponse(t *testing.T, r *Response) {
	t.Helper()
	var got Response
	if err := responseLayout.decode(responseFrame(t, r)[frameHdrLen:], &got, false); err != nil {
		t.Fatalf("%v reply: %v", r.Op, err)
	}
	if !reflect.DeepEqual(*r, got) {
		t.Fatalf("%v reply changed on the wire:\nsent %+v\n got %+v", r.Op, *r, got)
	}
}

// TestRoundTripEveryOp drives the codec from the op table: every op
// types knows, except the handshake's, must have a sample request, must
// be dispatched by the server, and its request and the reply a real
// drive gives it must cross the wire unchanged. A new op without a
// sample fails here. Messages with every field set cover what the
// samples do not, and a field of a new kind fails in fill.
func TestRoundTripEveryOp(t *testing.T) {
	_, srv, drv := startServerRaw(t, nil)
	t.Cleanup(func() { _ = srv.Close(); _ = drv.Close() })
	admin := types.AdminCred()
	acl := []types.ACLEntry{{User: 100, Perm: types.PermAll}}
	obj, err := drv.Create(admin, acl, []byte("attr"))
	if err != nil {
		t.Fatal(err)
	}
	if err := drv.Write(admin, obj, 0, bytes.Repeat([]byte("0123456789"), 20)); err != nil {
		t.Fatal(err)
	}
	if err := drv.PCreate(admin, "part", obj); err != nil {
		t.Fatal(err)
	}
	samples := sampleRequests(obj)
	for op := types.Op(1); op.Valid(); op++ {
		if op == types.OpHello {
			continue // the handshake has frames of its own (TestGoldenVectors, FuzzHello)
		}
		req, ok := samples[op]
		if !ok {
			t.Errorf("op %v has no sample request: add one so its wire form is covered", op)
			continue
		}
		req.ID = uint64(op) + 100
		roundTripRequest(t, &req)
		resp := srv.dispatch(admin, &req)
		if resp.Errno == core.Errno(types.ErrUnimplProto) {
			t.Errorf("the server does not dispatch op %v (%v)", op, resp.Err())
		}
		if resp.Op != op || resp.ID != req.ID {
			t.Errorf("reply to %v %d echoes %v %d", op, req.ID, resp.Op, resp.ID)
		}
		roundTripResponse(t, resp)
	}
	full, fullReply := fullRequest(), fullResponse()
	roundTripRequest(t, &full)
	roundTripResponse(t, &fullReply)
	for _, r := range sampleResponses() {
		r := r
		roundTripResponse(t, &r)
	}
	// A decoded request may alias its frame, but only through Data.
	frame := requestFrame(t, &full)
	var aliased Request
	if err := requestLayout.decode(frame[frameHdrLen:], &aliased, true); err != nil {
		t.Fatal(err)
	}
	for i := range frame {
		frame[i] = 0xEE
	}
	want := fullRequest()
	scribbled := bytes.Repeat([]byte{0xEE}, len(want.Data))
	want.Data = scribbled
	for i := range want.Batch {
		want.Batch[i].Data = scribbled
	}
	if !reflect.DeepEqual(aliased, want) {
		t.Fatalf("after its frame was overwritten an aliasing decode reads\n %+v\nwant only Data to have followed the frame:\n %+v", aliased, want)
	}
}

// TestEncoderRefusesWhatDecoderWould: the client learns about a request
// the server would hang up on before anything is sent, with the
// connection still usable.
func TestEncoderRefusesWhatDecoderWould(t *testing.T) {
	addr, _ := startServer(t)
	c := dialUser(t, addr, 100)
	nested := &Request{Op: types.OpBatch, Batch: []Request{{Op: types.OpBatch, Batch: []Request{{Op: types.OpSync}}}}}
	if _, err := c.Call(nested); !errors.Is(err, errNestedBatch) {
		t.Fatalf("nested batch: %v", err)
	}
	if _, err := c.Batch(make([]Request, maxEntries+1)); !errors.Is(err, types.ErrTooLarge) {
		t.Fatalf("oversized batch: %v", err)
	}
	if err := c.Write(1, 0, make([]byte, MaxFrame)); !errors.Is(err, types.ErrTooLarge) {
		t.Fatalf("oversized frame: %v", err)
	}
	if _, err := c.Status(); err != nil {
		t.Fatalf("connection unusable after refused requests: %v", err)
	}
	if st := c.Stats(); st.Retries != 0 || st.Reconnects != 0 {
		t.Fatalf("refused requests were retried: %+v", st)
	}
}

// TestWireSizes bounds what the common exchanges cost on the wire,
// frame header included.
func TestWireSizes(t *testing.T) {
	block := make([]byte, types.BlockSize)
	hello := frameOf(t, putHello(&Hello{Client: 1, User: 100, MAC: make([]byte, macLen), Session: 1 << 63}))
	if len(hello) != frameHdrLen+maxHelloFrame {
		t.Errorf("a Hello with a full MAC is %d bytes, maxHelloFrame says %d", len(hello)-frameHdrLen, maxHelloFrame)
	}
	for _, c := range []struct {
		name       string
		size, most int
	}{
		{"4 KB write request", len(requestFrame(t, &Request{Op: types.OpWrite, ID: 1 << 40, Obj: 1 << 40, Offset: 1 << 40, User: 100, Data: block})), types.BlockSize + 64},
		{"read request", len(requestFrame(t, &Request{Op: types.OpRead, ID: 1 << 40, Obj: 1 << 40, Offset: 1 << 40, Length: types.BlockSize, At: types.TimeNowest, User: 100})), 64},
		{"sync request", len(requestFrame(t, &Request{Op: types.OpSync, ID: 1 << 40, Obj: 1 << 40, User: 100})), 64},
		{"payload-free reply", len(responseFrame(t, &Response{Op: types.OpWrite, ID: 1 << 40})), 32},
		{"append reply", len(responseFrame(t, &Response{Op: types.OpAppend, ID: 1 << 40, Offset: 1 << 40})), 32},
		{"4 KB read reply", len(responseFrame(t, &Response{Op: types.OpRead, ID: 1 << 40, Data: block})), types.BlockSize + 32},
		{"handshake", handshakeBytes, 160},
		{"soak exchange", len(requestFrame(t, &Request{Op: types.OpAppend, ID: 1 << 40, Obj: 1 << 40, User: 100, Data: []byte(SoakMarker(1))})) +
			len(responseFrame(t, &Response{Op: types.OpAppend, ID: 1 << 40, Offset: 1 << 40})), soakExchangeBytes},
	} {
		if c.size > c.most {
			t.Errorf("%s: %d bytes on the wire, bound %d", c.name, c.size, c.most)
		}
	}
}

// TestCodecAllocations pins the allocation diet with counts that repeat
// exactly: the codec alone on one 4 KB write exchange, and a whole 4 KB
// Client.Write against a loopback server, counted process-wide — client,
// server and drive together.
func TestCodecAllocations(t *testing.T) {
	req := &Request{Op: types.OpWrite, ID: 7, Obj: 99, Offset: 8192, Data: make([]byte, types.BlockSize)}
	resp := &Response{Op: types.OpWrite, ID: 7}
	var e xdr.Encoder
	var gotReq Request
	var gotResp Response
	codec := testing.AllocsPerRun(200, func() {
		e.Reset(e.Bytes()[:0])
		if err := requestLayout.put(&e, req, true); err != nil {
			t.Fatal(err)
		}
		if err := requestLayout.decode(e.Bytes(), &gotReq, true); err != nil {
			t.Fatal(err)
		}
		e.Reset(e.Bytes()[:0])
		if err := responseLayout.put(&e, resp, true); err != nil {
			t.Fatal(err)
		}
		if err := responseLayout.decode(e.Bytes(), &gotResp, false); err != nil {
			t.Fatal(err)
		}
	})
	if codec > 4 {
		t.Errorf("encode, decode, encode, decode of a 4 KB write exchange: %v allocations, want <= 4", codec)
	}

	addr, _ := startServer(t)
	c := dialUser(t, addr, 100)
	obj, err := c.Create(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, types.BlockSize)
	whole := testing.AllocsPerRun(200, func() {
		if err := c.Write(obj, 0, data); err != nil {
			t.Fatal(err)
		}
	})
	if whole > 64 {
		t.Errorf("a 4 KB Client.Write: %v allocations process-wide, want <= 64", whole)
	}
	t.Logf("allocations: codec %v per exchange, Client.Write %v process-wide", codec, whole)
}

// TestCounterSchema: counters travel by name. A peer with a counter
// this build has never heard of, and without one it has, is understood;
// and every field of the three counter structs crosses the wire, found
// by reflection, so a field is covered the day it is added.
func TestCounterSchema(t *testing.T) {
	var e xdr.Encoder
	e.Uint32(uint32(types.OpStats))
	e.Uint32(1 << 11) // mask: stats
	e.Uint64(5)
	e.Uint32(2)
	e.String("BytesRead")
	e.Uint64(4096)
	e.String("CounterFromTheFuture")
	e.Uint64(1)
	e.Uint32(2)
	e.Uint32(uint32(types.OpRead))
	e.Uint64(3)
	e.Uint32(200) // an op from the future
	e.Uint64(4)
	var got Response
	if err := responseLayout.decode(e.Bytes(), &got, false); err != nil {
		t.Fatalf("a reply with an unknown counter: %v", err)
	}
	want := Response{Op: types.OpStats, ID: 5, Stats: core.Stats{BytesRead: 4096, Ops: map[types.Op]int64{types.OpRead: 3, 200: 4}}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("decoded %+v\nwant %+v", got, want)
	}

	for _, tc := range []struct {
		zero    any
		sc      *schema
		carried map[string]bool // the fields that are not counters and travel another way
		wrap    func(reflect.Value) *Response
	}{
		{core.Stats{}, statsSchema, map[string]bool{"Ops": true}, func(v reflect.Value) *Response {
			return &Response{Stats: v.Interface().(core.Stats), ShardStats: []core.Stats{v.Interface().(core.Stats)}}
		}},
		{core.StatusInfo{}, statusSchema, map[string]bool{"Suspects": true}, func(v reflect.Value) *Response {
			return &Response{Status: v.Interface().(core.StatusInfo)}
		}},
		{core.ScrubResult{}, scrubSchema, nil, func(v reflect.Value) *Response {
			return &Response{Scrub: v.Interface().(core.ScrubResult)}
		}},
	} {
		typ := reflect.TypeOf(tc.zero)
		for i := 0; i < typ.NumField(); i++ {
			name := typ.Field(i).Name
			if _, ok := tc.sc.byName[name]; !ok && !tc.carried[name] {
				t.Errorf("%v.%s (%v) is not carried: the counter schema takes int, int64 and uint64 fields", typ, name, typ.Field(i).Type)
				continue
			}
			v := reflect.New(typ).Elem()
			n := i
			fill(v.Field(i), &n, 0)
			roundTripResponse(t, tc.wrap(v))
		}
	}
	roundTripResponse(t, &Response{Op: types.OpStats, Stats: core.Stats{OpenDuration: -time.Second, FreeSegments: -1}})
}

// TestCachedReplySurvivesPoolChurn: the duplicate-reply cache holds a
// Response, never a pooled buffer, so a retransmission answered from it
// after other connections have cycled the pool is the same bytes.
func TestCachedReplySurvivesPoolChurn(t *testing.T) {
	t.Cleanup(leakcheck.Check(t))
	addr, _ := startServer(t)
	c := dialUser(t, addr, 100)
	obj, err := c.Create([]types.ACLEntry{{User: 100, Perm: types.PermAll}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	content := bytes.Repeat([]byte("cached reply "), types.BlockSize/13+1)[:types.BlockSize]
	if err := c.Write(obj, 0, content); err != nil {
		t.Fatal(err)
	}

	conn := rawHandshake(t, addr, 4242)
	defer conn.Close()
	read := requestFrame(t, &Request{Op: types.OpRead, ID: 1, Obj: obj, Length: types.BlockSize, At: types.TimeNowest})
	exchange := func() []byte {
		t.Helper()
		if _, err := conn.Write(read); err != nil {
			t.Fatal(err)
		}
		conn.SetReadDeadline(time.Now().Add(5 * time.Second))
		body, err := conn.readFrame()
		if err != nil {
			t.Fatal(err)
		}
		return body
	}
	first := exchange()

	// Other sessions push differently sized, differently filled frames
	// through every pooled buffer, in both directions.
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			cc, err := Dial(addr, 1, 100, clientKey, false)
			if err != nil {
				t.Error(err)
				return
			}
			defer cc.Close()
			id, err := cc.Create(nil, nil)
			if err != nil {
				t.Error(err)
				return
			}
			for i := 0; i < 50; i++ {
				junk := bytes.Repeat([]byte{byte(0xA0 + w)}, 512+i*97)
				if err := cc.Write(id, 0, junk); err != nil {
					t.Error(err)
					return
				}
				if _, err := cc.Read(id, 0, uint64(len(junk)), types.TimeNowest); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()

	again := exchange()
	if !bytes.Equal(first, again) {
		t.Fatal("the retransmission's reply differs from the original")
	}
	var resp Response
	if err := responseLayout.decode(again, &resp, false); err != nil || !bytes.Equal(resp.Data, content) {
		t.Fatalf("cached reply does not carry the object's content (%v)", err)
	}
	// And it was the cache that answered: the drive saw one read.
	var reads int
	recs, err := adminClient(t, addr).AuditRead(0, 1<<16)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		if r.Op == types.OpRead && r.Obj == obj {
			reads++
		}
	}
	if reads != 1 {
		t.Fatalf("the drive audited %d reads of the object, want 1", reads)
	}
}

func adminClient(t *testing.T, addr string) *Client {
	t.Helper()
	c, err := Dial(addr, 0, types.AdminUser, adminKey, true)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = c.Close() })
	return c
}

// gateListener hands out connections that stop where a handler clears
// its read deadline for the idle wait, so a test can run Shutdown at
// exactly that point.
type gateListener struct {
	net.Listener
	clearing chan struct{} // a handler is about to clear its read deadline
	booted   chan struct{} // someone set a read deadline (Shutdown's boot)
	release  chan struct{} // closed to let the clear go ahead
}

type gateConn struct {
	net.Conn
	l *gateListener
}

func (l *gateListener) Accept() (net.Conn, error) {
	conn, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &gateConn{conn, l}, nil
}

func (c *gateConn) SetReadDeadline(t time.Time) error {
	if t.IsZero() {
		c.l.clearing <- struct{}{}
		<-c.l.release
	} else {
		c.l.booted <- struct{}{}
	}
	return c.Conn.SetReadDeadline(t)
}

// TestShutdownVersusDeadlineClear pins the one interleaving that used to
// cost Shutdown its whole drain timeout: the handler of an idle
// connection clears its read deadline just after Shutdown set it. The
// handler must notice the drain instead of parking on the socket.
func TestShutdownVersusDeadlineClear(t *testing.T) {
	t.Cleanup(leakcheck.Check(t))
	srv, drv := newTestServer(t, func(s *Server) { s.SetIOTimeout(time.Second) })
	defer drv.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	gate := &gateListener{Listener: ln, clearing: make(chan struct{}, 1), booted: make(chan struct{}, 1), release: make(chan struct{})}
	go func() { _ = srv.Serve(gate) }()
	defer srv.Close()

	c, err := Dial(ln.Addr().String(), 1, 100, clientKey, false)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	<-gate.clearing // the handler is on its way into the idle wait
	const drain = 5 * time.Second
	done := make(chan time.Duration, 1)
	start := time.Now()
	go func() { _ = srv.Shutdown(drain); done <- time.Since(start) }()
	<-gate.booted       // Shutdown has set draining and the boot deadline...
	close(gate.release) // ...which the handler's clear now wipes out
	if took := <-done; took > drain/5 {
		t.Fatalf("Shutdown took %v: the handler parked on an idle socket and sat out the drain timeout (%v)", took, drain)
	}
}

// TestShutdownBootsIdleReaders: Shutdown must not wait out its drain
// timeout on connections that are merely idle, however their handlers'
// trip back to the idle read interleaves with it. Every client makes
// one request and falls silent, so Shutdown lands while the handlers
// are between their reply and their next read — the window in which a
// handler that clears its read deadline after Shutdown set it would
// park until the timeout.
func TestShutdownBootsIdleReaders(t *testing.T) {
	t.Cleanup(leakcheck.Check(t))
	const drain = 5 * time.Second
	for round := 0; round < 4; round++ {
		addr, srv, drv := startServerRaw(t, func(s *Server) { s.SetIOTimeout(time.Second) })
		var clients []*Client
		for i := 0; i < 4; i++ {
			c, err := Dial(addr, 1, 100, clientKey, false)
			if err != nil {
				t.Fatal(err)
			}
			clients = append(clients, c)
		}
		var wg sync.WaitGroup
		for _, c := range clients {
			c := c
			wg.Add(1)
			go func() {
				defer wg.Done()
				if _, err := c.Status(); err != nil {
					t.Error(err)
				}
			}()
		}
		wg.Wait()
		start := time.Now()
		err := srv.Shutdown(drain)
		took := time.Since(start)
		for _, c := range clients {
			_ = c.Close()
		}
		_ = drv.Close()
		if err != nil {
			t.Fatal(err)
		}
		if took > drain/5 {
			t.Fatalf("round %d: Shutdown took %v with only idle connections; it waited for the drain timeout (%v)", round, took, drain)
		}
	}
}
