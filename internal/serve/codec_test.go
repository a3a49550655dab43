package serve

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"
)

// wireSeeds are request and reply lines of every shape the fleet's
// clients and server exchange (workload.Replay and rchreplay, perfbench's
// fleet plan, scripts/fleetprobe, the server's replies), plus the inputs
// that sit on the edge of the compact form: escapes, non-ASCII, HTML
// bytes, case-variant and repeated keys, whitespace, null, empty lists,
// 20-digit and overflowing seeds, -0, exponents and trailing bytes.
var wireSeeds = []string{
	// Requests.
	`{"id":"b1","op":"boot","device":"dev-3","handler":"guarded","seed":17}`,
	`{"id":"r7","op":"drive","device":"dev-3","kind":"rotate"}`,
	`{"id":"s2","op":"drive","device":"dev-0","kind":"switch"}`,
	`{"id":"t2","op":"drive","device":"dev-0","kind":"trim"}`,
	`{"id":"x9","op":"batch","batch":[{"device":"dev-1","kind":"monkey","seed":12786962302290339731,"events":14},{"device":"dev-2","kind":"rotate"},{"device":"dev-3","kind":"night"}]}`,
	`{"op":"boot","device":"storm","spec":"panic-on-relaunch","handler":"stock","seed":1}`,
	`{"op":"drive","device":"z","kind":"sleep","millis":600}`,
	`{"op":"canary","seed":42}`,
	`{"id":"final-stats","op":"stats"}`,
	`{"op":"health"}`,
	`{"op":"drive","device":"d","kind":"chaos","seed":18446744073709551615}`,
	`{"op":"drive","device":"d","kind":"monkey","events":-1,"millis":-9223372036854775808}`,
	`{"op":"batch","batch":[]}`,
	`{"op":"batch","batch":[{}]}`,
	`{"op":"batch","batch":[{"device":"a","kind":"day","seed":1,"events":2,"millis":3}]}`,
	`{}`,
	// Replies.
	`{"id":"r7","ok":true,"detail":"rotated","shard":2}`,
	`{"id":"b1","ok":true,"detail":"device \"dev-3\" resident (spec=oracle handler=guarded)","shard":1,"token":2}`,
	`{"id":"x9","ok":false,"code":"device_panic","detail":"panic: boom (device torn down)","shard":-1,"results":[{"index":0,"ok":true,"detail":"monkey clean: 14 events (3 changes)","shard":0},{"index":1,"ok":false,"code":"overloaded","detail":"shard queue full; request shed","shard":1}]}`,
	`{"ok":false,"code":"bad_request","detail":"bad request line: unexpected end of JSON input","shard":-1}`,
	`{"ok":true,"detail":"clean","shard":0,"failures":["seed 3: lost text","seed 3: lost seek"]}`,
	`{"ok":true,"shard":0,"failures":[],"results":[]}`,
	`{"ok":true,"shard":-1,"shards":[{"shard":0,"state":"serving","devices":3,"queue_len":0}]}`,
	`{"ok":true,"shard":-1,"metrics":{"a":1},"canonical":{"b":2}}`,
	// Edges.
	`{"id":"aA","op":"boot"}`,
	`{"id":"a\"b","op":"boot"}`,
	`{"id":"é","op":"boot"}`,
	"{\"id\":\"\xff\",\"op\":\"boot\"}",
	`{"id":"<&>","op":"boot","detail":"<b>"}`,
	`{"ID":"x","Op":"boot","OK":true}`,
	`{"op":"boot","op":"drive"}`,
	`{"op":"batch","batch":[{"device":"a","seed":5}],"batch":[{"device":"b"}]}`,
	`{"ok":true,"ok":false,"shard":1}`,
	`{ "op" : "boot" }`,
	`{"op":"boot"} `,
	`{"op":null,"seed":null,"batch":null}`,
	`{"ok":true,"shard":1,"results":null,"failures":null}`,
	`null`,
	`[]`,
	`{"op":"drive","seed":18446744073709551616}`,
	`{"op":"drive","seed":99999999999999999999}`,
	`{"op":"drive","seed":-0,"events":-0}`,
	`{"op":"drive","seed":-1}`,
	`{"op":"drive","events":1e3}`,
	`{"op":"drive","events":1.0}`,
	`{"op":"drive","events":01}`,
	`{"op":"drive","events":9223372036854775808}`,
	`{"op":"drive","seed":"5"}`,
	`{"op":"boot"}x`,
	`{"op":"boot"}{"op":"boot"}`,
	`{"op":"boot",}`,
	`{"op":"boot"`,
	`{"ok":tru,"shard":0}`,
	`{"ok":true,"shard":0,"unknown":1}`,
	``,
}

// FuzzWireCodec holds the wire codec to encoding/json. For any line,
// DecodeRequest and DecodeResponse return the value and the error
// json.Unmarshal returns into a zero value. For any value the encoders
// accept (every line json.Unmarshal decodes gives one), AppendRequest and
// AppendResponse write exactly json.Encoder's bytes, and a decline leaves
// dst as it was.
func FuzzWireCodec(f *testing.F) {
	for _, s := range wireSeeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, line []byte) {
		var wantReq, gotReq Request
		werr := json.Unmarshal(line, &wantReq)
		gotReq.ID = "stale" // the decoder must start from a zero value
		gerr := DecodeRequest(line, &gotReq)
		sameDecode(t, "request", line, wantReq, gotReq, werr, gerr)
		if werr == nil {
			sameEncode(t, "request", &wantReq, func(dst []byte) ([]byte, bool) { return AppendRequest(dst, &wantReq) })
		}

		var wantResp, gotResp Response
		werr = json.Unmarshal(line, &wantResp)
		gotResp.Token = 99
		gerr = DecodeResponse(line, &gotResp)
		sameDecode(t, "response", line, wantResp, gotResp, werr, gerr)
		if werr == nil {
			sameEncode(t, "response", &wantResp, func(dst []byte) ([]byte, bool) { return AppendResponse(dst, &wantResp) })
		}
	})
}

func sameDecode(t *testing.T, what string, line []byte, want, got any, werr, gerr error) {
	t.Helper()
	if (werr == nil) != (gerr == nil) || werr != nil && (werr.Error() != gerr.Error() || reflect.TypeOf(werr) != reflect.TypeOf(gerr)) {
		t.Fatalf("%s %q: error %v, json.Unmarshal's %v", what, line, gerr, werr)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("%s %q: decoded %#v, json.Unmarshal decoded %#v", what, line, got, want)
	}
}

func sameEncode(t *testing.T, what string, v any, appendLine func([]byte) ([]byte, bool)) {
	t.Helper()
	var want bytes.Buffer
	if err := json.NewEncoder(&want).Encode(v); err != nil {
		return
	}
	prefix := []byte("prefix")
	got, ok := appendLine(prefix)
	if !ok {
		if string(got) != "prefix" {
			t.Fatalf("%s %#v: a decline changed dst to %q", what, v, got)
		}
		return
	}
	if !bytes.Equal(got[len(prefix):], want.Bytes()) {
		t.Fatalf("%s %#v: encoded\n%q\njson.Encoder writes\n%q", what, v, got[len(prefix):], want.Bytes())
	}
}

// TestWireCodecFastPath pins which lines take the fast path: the fleet's
// own request and reply lines must, or the codec saves nothing, while
// a health reply, a stats reply and a string that needs escaping are
// declined to encoding/json.
func TestWireCodecFastPath(t *testing.T) {
	reqs := []Request{
		{ID: "r1", Op: OpDrive, Device: "dev-3", Kind: KindRotate},
		{ID: "b1", Op: OpBoot, Device: "dev-3", Handler: HandlerGuarded, Seed: 18446744073709551615},
		{ID: "x1", Op: OpBatch, Batch: []BatchStep{
			{Device: "dev-1", Kind: KindMonkey, Seed: 12786962302290339731, Events: 14},
			{Device: "dev-2", Kind: KindRotate},
			{Device: "dev-3", Kind: KindSleep, Millis: 2},
		}},
	}
	for _, req := range reqs {
		line, ok := AppendRequest(nil, &req)
		if !ok {
			t.Fatalf("AppendRequest declined %+v", req)
		}
		var got Request
		r := lineReader{b: bytes.TrimSuffix(line, []byte{'\n'})}
		if !r.request(&got) || !reflect.DeepEqual(got, req) {
			t.Fatalf("the fast decoder does not read back %q: %+v", line, got)
		}
	}
	resps := []Response{
		{ID: "r1", OK: true, Shard: 2, Detail: "rotated"},
		{ID: "x1", OK: false, Code: CodeOverloaded, Shard: -1, Detail: "shard queue full; request shed", Results: []BatchResult{
			{Index: 0, OK: true, Shard: 0, Detail: "monkey CRASH after 3 events (1 changes): app oracleapp crashed: NullPointerException: setText on released EditText (id 11)"},
			{Index: 1, OK: false, Code: CodeOverloaded, Shard: 1, Detail: "shard queue full; request shed"},
		}},
		{OK: true, Shard: 1, Failures: []string{"a", "b"}},
	}
	for _, resp := range resps {
		line, ok := AppendResponse(nil, &resp)
		if !ok {
			t.Fatalf("AppendResponse declined %+v", resp)
		}
		var got Response
		r := lineReader{b: bytes.TrimSuffix(line, []byte{'\n'})}
		if !r.response(&got) || !reflect.DeepEqual(got, resp) {
			t.Fatalf("the fast decoder does not read back %q: %+v", line, got)
		}
	}
	declined := []Response{
		{OK: true, Shard: -1, Shards: []ShardHealth{{State: "serving"}}},
		{OK: true, Shard: -1, Metrics: json.RawMessage(`{}`)},
		{OK: true, Shard: 0, Detail: `device "d" resident`},
		{OK: true, Shard: 0, Detail: "a<b"},
		{OK: true, Shard: 0, Failures: []string{"é"}},
	}
	for _, resp := range declined {
		if _, ok := AppendResponse(nil, &resp); ok {
			t.Fatalf("AppendResponse took %+v, which it cannot write exactly", resp)
		}
	}
	if _, ok := AppendRequest(nil, &Request{Op: OpBoot, Device: strings.Repeat("\x01", 3)}); ok {
		t.Fatal("AppendRequest took a control byte")
	}
}
