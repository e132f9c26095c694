package nfsv2

import (
	"fmt"

	"s4/internal/fsys"
	"s4/internal/oncrpc"
	"s4/internal/xdr"
)

// Client is a minimal NFSv2 client used by tools, tests, and examples
// (a kernel would normally play this role).
type Client struct {
	rpc *oncrpc.Client
}

// DialClient connects to an NFSv2/MOUNT server at addr with the given
// AUTH_UNIX identity.
func DialClient(addr string, uid, gid uint32, machine string) (*Client, error) {
	c, err := oncrpc.DialClient(addr, uid, gid, machine)
	if err != nil {
		return nil, err
	}
	return &Client{rpc: c}, nil
}

// Close releases the socket.
func (c *Client) Close() error { return c.rpc.Close() }

// nfsError is a non-OK NFS status.
type nfsError uint32

func (e nfsError) Error() string { return fmt.Sprintf("nfs: status %d", uint32(e)) }

// Status extracts the numeric NFS status from an error returned by this
// client (0, false if the error is not an NFS status).
func Status(err error) (uint32, bool) {
	if e, ok := err.(nfsError); ok {
		return uint32(e), true
	}
	return 0, false
}

// call issues one procedure and reads the status every reply this client
// decodes opens with; the rest is the caller's to decode.
func (c *Client) call(prog, vers, proc uint32, args *xdr.Encoder) (*xdr.Decoder, error) {
	d, err := c.rpc.Call(prog, vers, proc, args.Bytes())
	if err != nil {
		return nil, err
	}
	switch st := d.Uint32(); {
	case d.Err() != nil:
		return nil, d.Err()
	case st != OK:
		return nil, nfsError(st)
	}
	return d, nil
}

func (c *Client) nfsCall(proc uint32, args *xdr.Encoder) (*xdr.Decoder, error) {
	return c.call(ProgNFS, VersNFS, proc, args)
}

// Mount resolves the export path to its root handle.
func (c *Client) Mount(path string) (fsys.Handle, error) {
	e := xdr.NewEncoder()
	e.String(path)
	d, err := c.call(ProgMount, VersMount, MountProcMnt, e)
	if err != nil {
		return 0, err
	}
	return decodeFH(d), d.Err()
}

// fattrSize is a fattr's length on the wire: 17 words.
const fattrSize = 17 * 4

// Attr is the client-side view of a fattr.
type Attr struct {
	Type  uint32
	Mode  uint32
	Nlink uint32
	UID   uint32
	Size  uint32
}

// decodeAttr reads a fattr into an Attr, skipping what Attr leaves out.
func decodeAttr(d *xdr.Decoder) Attr {
	a := Attr{Type: d.Uint32(), Mode: d.Uint32(), Nlink: d.Uint32(), UID: d.Uint32()}
	d.Uint32() // gid
	a.Size = d.Uint32()
	d.OpaqueFixed(fattrSize - 6*4) // blocksize..ctime
	return a
}

// GetAttr fetches a node's attributes.
func (c *Client) GetAttr(h fsys.Handle) (Attr, error) {
	e := xdr.NewEncoder()
	encodeFH(e, h)
	d, err := c.nfsCall(ProcGetattr, e)
	if err != nil {
		return Attr{}, err
	}
	return decodeAttr(d), d.Err()
}

// Lookup resolves name in dir.
func (c *Client) Lookup(dir fsys.Handle, name string) (fsys.Handle, Attr, error) {
	e := xdr.NewEncoder()
	encodeFH(e, dir)
	e.String(name)
	d, err := c.nfsCall(ProcLookup, e)
	if err != nil {
		return 0, Attr{}, err
	}
	h, a := decodeFH(d), decodeAttr(d)
	return h, a, d.Err()
}

// Create makes a regular file.
func (c *Client) Create(dir fsys.Handle, name string, mode uint32) (fsys.Handle, error) {
	e := xdr.NewEncoder()
	encodeFH(e, dir)
	e.String(name)
	writeSattr(e, mode)
	d, err := c.nfsCall(ProcCreate, e)
	if err != nil {
		return 0, err
	}
	return decodeFH(d), d.Err()
}

// Mkdir makes a directory.
func (c *Client) Mkdir(dir fsys.Handle, name string, mode uint32) (fsys.Handle, error) {
	e := xdr.NewEncoder()
	encodeFH(e, dir)
	e.String(name)
	writeSattr(e, mode)
	d, err := c.nfsCall(ProcMkdir, e)
	if err != nil {
		return 0, err
	}
	return decodeFH(d), d.Err()
}

func writeSattr(e *xdr.Encoder, mode uint32) {
	e.Uint32(mode)
	for i := 0; i < 7; i++ {
		e.Uint32(0xFFFFFFFF) // uid, gid, size, atime, mtime unset
	}
}

// Write stores data at off (NFSv2 limits one call to 8KB).
func (c *Client) Write(h fsys.Handle, off uint32, data []byte) error {
	for len(data) > 0 {
		n := len(data)
		if n > MaxData {
			n = MaxData
		}
		e := xdr.NewEncoder()
		encodeFH(e, h)
		e.Uint32(0)
		e.Uint32(off)
		e.Uint32(0)
		e.Opaque(data[:n])
		if _, err := c.nfsCall(ProcWrite, e); err != nil {
			return err
		}
		off += uint32(n)
		data = data[n:]
	}
	return nil
}

// Read returns up to count bytes at off.
func (c *Client) Read(h fsys.Handle, off, count uint32) ([]byte, error) {
	var out []byte
	for count > 0 {
		n := count
		if n > MaxData {
			n = MaxData
		}
		e := xdr.NewEncoder()
		encodeFH(e, h)
		e.Uint32(off)
		e.Uint32(n)
		e.Uint32(0)
		d, err := c.nfsCall(ProcRead, e)
		if err != nil {
			return nil, err
		}
		d.OpaqueFixed(fattrSize)
		data := d.Opaque(MaxData + 16)
		if d.Err() != nil {
			return nil, d.Err()
		}
		out = append(out, data...)
		if uint32(len(data)) < n {
			break
		}
		off += uint32(len(data))
		count -= uint32(len(data))
	}
	return out, nil
}

// Remove unlinks a file.
func (c *Client) Remove(dir fsys.Handle, name string) error {
	e := xdr.NewEncoder()
	encodeFH(e, dir)
	e.String(name)
	_, err := c.nfsCall(ProcRemove, e)
	return err
}

// ReadDir lists a directory (following continuation cookies).
func (c *Client) ReadDir(dir fsys.Handle) ([]string, error) {
	var names []string
	cookie := uint32(0)
	for {
		e := xdr.NewEncoder()
		encodeFH(e, dir)
		e.Uint32(cookie)
		e.Uint32(2048)
		d, err := c.nfsCall(ProcReaddir, e)
		if err != nil {
			return nil, err
		}
		for d.Bool() { // an entry follows
			d.Uint32() // fileid
			names = append(names, d.String(MaxName))
			cookie = d.Uint32()
		}
		eof := d.Bool()
		if d.Err() != nil {
			return nil, d.Err()
		}
		if eof {
			return names, nil
		}
	}
}
