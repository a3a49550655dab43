package serve

import (
	"encoding/json"
	"strconv"
)

// The wire codec. Request and reply lines are JSON as encoding/json
// writes them; this file encodes and decodes the lines the fleet
// exchanges at request rate without reflection, and leaves every other
// line to encoding/json, so the bytes on the wire and the decoded values
// are exactly encoding/json's either way.
//
// The encoders write compact JSON: keys in struct order, empty
// omitempty fields left out, strings of printable ASCII that need no
// escaping. They decline anything else: a string JSON would escape
// (a control or non-ASCII byte, '"', '\\', or '<', '>', '&', which
// json.Encoder escapes for HTML), or a field they do not write (a
// reply's Shards, Metrics or Canonical). The decoders accept only that
// compact form: no whitespace, each known lower-case key at most once,
// plain strings, integers in range, true and false. Any other line,
// malformed ones included, is decoded by json.Unmarshal into a zero
// value, so the value and the error are json.Unmarshal's.
//
// The decoders allocate only what they store, never sized from a number
// read in the line, and known op and kind names decode to the package
// constants.

// AppendRequest appends req's wire line to dst: exactly the bytes
// json.Encoder writes for req, newline included. ok is false, and dst
// is returned unchanged, when req holds a value the fast path does not
// write; the caller then encodes req with encoding/json.
func AppendRequest(dst []byte, req *Request) (line []byte, ok bool) {
	w := lineWriter{b: dst}
	w.b = append(w.b, '{')
	if req.ID != "" {
		w.key(`"id":`)
		w.str(req.ID)
		w.b = append(w.b, ',')
	}
	w.key(`"op":`)
	w.str(req.Op)
	w.optStr(`,"device":`, req.Device)
	w.optStr(`,"spec":`, req.Spec)
	w.optStr(`,"handler":`, req.Handler)
	if req.Seed != 0 {
		w.key(`,"seed":`)
		w.b = strconv.AppendUint(w.b, req.Seed, 10)
	}
	w.optStr(`,"kind":`, req.Kind)
	w.optInt(`,"events":`, req.Events)
	w.optInt(`,"millis":`, req.Millis)
	if len(req.Batch) > 0 {
		w.key(`,"batch":[`)
		for i := range req.Batch {
			if i > 0 {
				w.b = append(w.b, ',')
			}
			st := &req.Batch[i]
			w.key(`{"device":`)
			w.str(st.Device)
			w.key(`,"kind":`)
			w.str(st.Kind)
			if st.Seed != 0 {
				w.key(`,"seed":`)
				w.b = strconv.AppendUint(w.b, st.Seed, 10)
			}
			w.optInt(`,"events":`, st.Events)
			w.optInt(`,"millis":`, st.Millis)
			w.b = append(w.b, '}')
		}
		w.b = append(w.b, ']')
	}
	w.b = append(w.b, '}', '\n')
	if w.bad {
		return dst, false
	}
	return w.b, true
}

// AppendResponse appends resp's reply line to dst: exactly the bytes
// json.Encoder writes for resp, newline included. ok is false, and dst
// is returned unchanged, when resp holds a value the fast path does not
// write (health and stats replies among them); the caller then encodes
// resp with encoding/json.
func AppendResponse(dst []byte, resp *Response) (line []byte, ok bool) {
	if len(resp.Shards) > 0 || len(resp.Metrics) > 0 || len(resp.Canonical) > 0 {
		return dst, false
	}
	w := lineWriter{b: dst}
	w.b = append(w.b, '{')
	if resp.ID != "" {
		w.key(`"id":`)
		w.str(resp.ID)
		w.b = append(w.b, ',')
	}
	w.key(`"ok":`)
	w.b = strconv.AppendBool(w.b, resp.OK)
	w.optStr(`,"code":`, string(resp.Code))
	w.optStr(`,"detail":`, resp.Detail)
	w.key(`,"shard":`)
	w.b = strconv.AppendInt(w.b, int64(resp.Shard), 10)
	w.optInt(`,"token":`, resp.Token)
	if len(resp.Failures) > 0 {
		w.key(`,"failures":[`)
		for i, f := range resp.Failures {
			if i > 0 {
				w.b = append(w.b, ',')
			}
			w.str(f)
		}
		w.b = append(w.b, ']')
	}
	if len(resp.Results) > 0 {
		w.key(`,"results":[`)
		for i := range resp.Results {
			if i > 0 {
				w.b = append(w.b, ',')
			}
			r := &resp.Results[i]
			w.key(`{"index":`)
			w.b = strconv.AppendInt(w.b, int64(r.Index), 10)
			w.key(`,"ok":`)
			w.b = strconv.AppendBool(w.b, r.OK)
			w.optStr(`,"code":`, string(r.Code))
			w.optStr(`,"detail":`, r.Detail)
			w.key(`,"shard":`)
			w.b = strconv.AppendInt(w.b, int64(r.Shard), 10)
			w.b = append(w.b, '}')
		}
		w.b = append(w.b, ']')
	}
	w.b = append(w.b, '}', '\n')
	if w.bad {
		return dst, false
	}
	return w.b, true
}

// DecodeRequest decodes one request line into *req, which it zeroes
// first: the result and the error are exactly those of json.Unmarshal
// into a zero Request.
func DecodeRequest(line []byte, req *Request) error {
	*req = Request{}
	r := lineReader{b: line}
	if r.request(req) {
		return nil
	}
	*req = Request{}
	return json.Unmarshal(line, req)
}

// DecodeResponse decodes one reply line into *resp, which it zeroes
// first: the result and the error are exactly those of json.Unmarshal
// into a zero Response.
func DecodeResponse(line []byte, resp *Response) error {
	*resp = Response{}
	r := lineReader{b: line}
	if r.response(resp) {
		return nil
	}
	*resp = Response{}
	return json.Unmarshal(line, resp)
}

// lineWriter appends one line; bad records a string it declined.
type lineWriter struct {
	b   []byte
	bad bool
}

// key appends literal JSON punctuation and a key.
func (w *lineWriter) key(k string) { w.b = append(w.b, k...) }

// str appends s as a JSON string, or marks the line bad when s needs
// escaping.
func (w *lineWriter) str(s string) {
	for i := 0; i < len(s); i++ {
		if !plain(s[i]) || s[i] == '<' || s[i] == '>' || s[i] == '&' {
			w.bad = true
			return
		}
	}
	w.b = append(w.b, '"')
	w.b = append(w.b, s...)
	w.b = append(w.b, '"')
}

// optStr appends key and s unless s is empty (omitempty).
func (w *lineWriter) optStr(key, s string) {
	if s != "" {
		w.key(key)
		w.str(s)
	}
}

// optInt appends key and n unless n is zero (omitempty).
func (w *lineWriter) optInt(key string, n int) {
	if n != 0 {
		w.key(key)
		w.b = strconv.AppendInt(w.b, int64(n), 10)
	}
}

// plain reports whether c stands for itself inside a JSON string on
// both sides: printable ASCII other than '"' and '\\'.
func plain(c byte) bool { return c >= 0x20 && c < 0x7f && c != '"' && c != '\\' }

// lineReader reads the compact form; any method returning false means
// the line is not in it.
type lineReader struct {
	b []byte
	i int
}

// eat consumes c if it is next.
func (r *lineReader) eat(c byte) bool {
	if r.i < len(r.b) && r.b[r.i] == c {
		r.i++
		return true
	}
	return false
}

// object reads '{', then each "key": through field, then '}'. field
// reads the key's value and returns the key's bit, or 0 for an unknown
// key or a bad value. A key seen twice fails the line: json.Unmarshal
// merges a repeated key into what the first one decoded, which the fast
// path leaves to it.
func (r *lineReader) object(field func(key []byte) uint32) bool {
	if !r.eat('{') {
		return false
	}
	if r.eat('}') {
		return true
	}
	var seen uint32
	for {
		key, ok := r.rawString()
		if !ok || !r.eat(':') {
			return false
		}
		bit := field(key)
		if bit == 0 || seen&bit != 0 {
			return false
		}
		seen |= bit
		if r.eat(',') {
			continue
		}
		return r.eat('}')
	}
}

// keyBit is bit when ok, else 0.
func keyBit(ok bool, bit uint32) uint32 {
	if ok {
		return bit
	}
	return 0
}

// rawString reads a plain string and returns its bytes, in place.
func (r *lineReader) rawString() ([]byte, bool) {
	if !r.eat('"') {
		return nil, false
	}
	start := r.i
	for r.i < len(r.b) {
		c := r.b[r.i]
		if c == '"' {
			s := r.b[start:r.i]
			r.i++
			return s, true
		}
		if !plain(c) {
			return nil, false
		}
		r.i++
	}
	return nil, false
}

// str reads a plain string. A known op or kind name decodes to its
// package constant; any other string is copied out of the line.
func (r *lineReader) str() (string, bool) {
	b, ok := r.rawString()
	if !ok {
		return "", false
	}
	switch string(b) {
	case OpBoot:
		return OpBoot, true
	case OpDrive:
		return OpDrive, true
	case OpBatch:
		return OpBatch, true
	case OpCanary:
		return OpCanary, true
	case OpStats:
		return OpStats, true
	case OpHealth:
		return OpHealth, true
	case KindRotate:
		return KindRotate, true
	case KindNight:
		return KindNight, true
	case KindDay:
		return KindDay, true
	case KindSwitch:
		return KindSwitch, true
	case KindTrim:
		return KindTrim, true
	case KindMonkey:
		return KindMonkey, true
	case KindChaos:
		return KindChaos, true
	case KindSleep:
		return KindSleep, true
	}
	return string(b), true
}

// uint reads an unsigned integer without leading zeros, failing past
// the uint64 range. A fraction or an exponent after it fails the line
// where the reader next expects ',', '}' or ']'.
func (r *lineReader) uint() (uint64, bool) {
	start := r.i
	var n uint64
	for r.i < len(r.b) && r.b[r.i] >= '0' && r.b[r.i] <= '9' {
		d := uint64(r.b[r.i] - '0')
		if n > (1<<64-1-d)/10 {
			return 0, false
		}
		n = n*10 + d
		r.i++
	}
	if r.i == start || r.b[start] == '0' && r.i-start > 1 {
		return 0, false
	}
	return n, true
}

// int reads an int in the platform's range.
func (r *lineReader) int() (int, bool) {
	neg := r.eat('-')
	u, ok := r.uint()
	if !ok {
		return 0, false
	}
	if neg {
		if u > uint64(maxInt)+1 {
			return 0, false
		}
		return int(-u), true
	}
	if u > uint64(maxInt) {
		return 0, false
	}
	return int(u), true
}

const maxInt = int(^uint(0) >> 1)

// bool reads true or false.
func (r *lineReader) bool() (bool, bool) {
	rest := r.b[r.i:]
	switch {
	case len(rest) >= 4 && string(rest[:4]) == "true":
		r.i += 4
		return true, true
	case len(rest) >= 5 && string(rest[:5]) == "false":
		r.i += 5
		return false, true
	}
	return false, false
}

// list reads a list whose items item reads. Items decode into a stack
// buffer (a fleet batch carries a handful; a longer list spills to the
// heap) and are copied out into one slice of their number, so nothing
// is sized from the line's content but the items it holds. An empty
// list decodes to an empty, non-nil slice, as json.Unmarshal decodes
// it.
func list[T any](r *lineReader, item func() (T, bool)) ([]T, bool) {
	if !r.eat('[') {
		return nil, false
	}
	var buf [16]T
	got := buf[:0]
	for !r.eat(']') {
		if len(got) > 0 && !r.eat(',') {
			return nil, false
		}
		v, ok := item()
		if !ok {
			return nil, false
		}
		got = append(got, v)
	}
	out := make([]T, len(got))
	copy(out, got)
	return out, true
}

// request reads a whole line as a Request.
func (r *lineReader) request(req *Request) bool {
	ok := r.object(func(key []byte) uint32 {
		var ok bool
		switch string(key) {
		case "id":
			req.ID, ok = r.str()
			return keyBit(ok, 1<<0)
		case "op":
			req.Op, ok = r.str()
			return keyBit(ok, 1<<1)
		case "device":
			req.Device, ok = r.str()
			return keyBit(ok, 1<<2)
		case "spec":
			req.Spec, ok = r.str()
			return keyBit(ok, 1<<3)
		case "handler":
			req.Handler, ok = r.str()
			return keyBit(ok, 1<<4)
		case "seed":
			req.Seed, ok = r.uint()
			return keyBit(ok, 1<<5)
		case "kind":
			req.Kind, ok = r.str()
			return keyBit(ok, 1<<6)
		case "events":
			req.Events, ok = r.int()
			return keyBit(ok, 1<<7)
		case "millis":
			req.Millis, ok = r.int()
			return keyBit(ok, 1<<8)
		case "batch":
			req.Batch, ok = list(r, r.step)
			return keyBit(ok, 1<<9)
		}
		return 0
	})
	return ok && r.i == len(r.b)
}

// step reads one BatchStep object.
func (r *lineReader) step() (st BatchStep, ok bool) {
	ok = r.object(func(key []byte) uint32 {
		var ok bool
		switch string(key) {
		case "device":
			st.Device, ok = r.str()
			return keyBit(ok, 1<<0)
		case "kind":
			st.Kind, ok = r.str()
			return keyBit(ok, 1<<1)
		case "seed":
			st.Seed, ok = r.uint()
			return keyBit(ok, 1<<2)
		case "events":
			st.Events, ok = r.int()
			return keyBit(ok, 1<<3)
		case "millis":
			st.Millis, ok = r.int()
			return keyBit(ok, 1<<4)
		}
		return 0
	})
	return st, ok
}

// response reads a whole line as a Response. Shards, Metrics and
// Canonical are not in the compact form.
func (r *lineReader) response(resp *Response) bool {
	ok := r.object(func(key []byte) uint32 {
		var ok bool
		switch string(key) {
		case "id":
			resp.ID, ok = r.str()
			return keyBit(ok, 1<<0)
		case "ok":
			resp.OK, ok = r.bool()
			return keyBit(ok, 1<<1)
		case "code":
			var code string
			code, ok = r.str()
			resp.Code = ErrCode(code)
			return keyBit(ok, 1<<2)
		case "detail":
			resp.Detail, ok = r.str()
			return keyBit(ok, 1<<3)
		case "shard":
			resp.Shard, ok = r.int()
			return keyBit(ok, 1<<4)
		case "token":
			resp.Token, ok = r.int()
			return keyBit(ok, 1<<5)
		case "failures":
			resp.Failures, ok = list(r, r.str)
			return keyBit(ok, 1<<6)
		case "results":
			resp.Results, ok = list(r, r.result)
			return keyBit(ok, 1<<7)
		}
		return 0
	})
	return ok && r.i == len(r.b)
}

// result reads one BatchResult object.
func (r *lineReader) result() (res BatchResult, ok bool) {
	ok = r.object(func(key []byte) uint32 {
		var ok bool
		switch string(key) {
		case "index":
			res.Index, ok = r.int()
			return keyBit(ok, 1<<0)
		case "ok":
			res.OK, ok = r.bool()
			return keyBit(ok, 1<<1)
		case "code":
			var code string
			code, ok = r.str()
			res.Code = ErrCode(code)
			return keyBit(ok, 1<<2)
		case "detail":
			res.Detail, ok = r.str()
			return keyBit(ok, 1<<3)
		case "shard":
			res.Shard, ok = r.int()
			return keyBit(ok, 1<<4)
		}
		return 0
	})
	return res, ok
}
