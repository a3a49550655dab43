// Package serve is the fleet layer: a long-running service hosting many
// concurrent virtual devices, sharded across goroutine pools, behind a
// line-delimited JSON wire API. Its job is robustness — the fleet-scale
// analogue of the per-activity guard ladder:
//
//   - Containment: a device whose callbacks panic is recovered, counted,
//     torn down (optionally respawned), and its shard keeps serving.
//   - Admission control: bounded per-shard queues; a full queue sheds the
//     request with an explicit error instead of growing without bound.
//   - Deadlines: a wall-clock request deadline complements the sim-clock
//     watchdog in internal/guard — requests that waited too long in the
//     queue are shed before they run.
//   - Circuit breaking: repeated device failures quarantine the shard
//     (serving → quarantined → probation → serving), mirroring the
//     guard's per-activity ladder at fleet scope.
//   - Graceful drain: stop admitting, finish or cancel queued work under
//     a drain deadline, flush metrics, and report clean-vs-forced.
//
// The server keeps one obs.Registry and each shard writes through its
// own obs.Shard of it, so the registry's snapshot is the aggregate, and
// its canonical (sim-domain) rendering is byte-identical regardless of
// shard count. Every serve-layer metric is wall-domain by design: the
// canonical surface carries only what canary runs record through the
// sweep runners, so a fleet canary dump byte-compares equal to an
// rchsweep dump over the same seeds.
//
// The package is fork-critical (worlds fork inside shards), so it keeps
// zero package-level mutable state — internal/forksafety enforces it.
package serve

import "encoding/json"

// Op names accepted on the wire.
const (
	// OpBoot forks (or fresh-builds) a resident device on the shard that
	// owns the device name.
	OpBoot = "boot"
	// OpDrive runs a burst on a resident device: a config change, a
	// monkey burst, a chaos storm, or a diagnostic stall.
	OpDrive = "drive"
	// OpBatch carries a burst of drive steps in one wire round-trip. The
	// server splits the steps by owning shard, dispatches each shard's
	// sub-batch through its queue (the shards run in parallel), and
	// merges the per-step results back into one reply — the batched
	// cross-shard dispatch that lets a replay client push an event burst
	// without paying one round-trip per event.
	OpBatch = "batch"
	// OpCanary runs one differential-oracle seed through the exact sweep
	// runner rchsweep uses, recording the same canonical metrics.
	OpCanary = "canary"
	// OpStats returns the merged metric snapshot (full and canonical).
	OpStats = "stats"
	// OpHealth returns readiness plus per-shard breaker/queue state.
	OpHealth = "health"
)

// Drive kinds.
const (
	// KindRotate pushes one rotation and settles.
	KindRotate = "rotate"
	// KindNight and KindDay toggle the UI mode and settle.
	KindNight = "night"
	KindDay   = "day"
	// KindSwitch is an app switch: the foreground activity is sent to the
	// background (pausing and stopping, releasing its shadow under
	// RCHDroid) and then brought back to the foreground — the leave-and-
	// return cycle a user's task switch costs the app.
	KindSwitch = "switch"
	// KindTrim delivers a low-memory pressure signal (onTrimMemory): the
	// change handler gives up reclaimable instances.
	KindTrim = "trim"
	// KindMonkey drives a seeded monkey burst (Events events).
	KindMonkey = "monkey"
	// KindChaos arms a seeded chaos plan and drives rotations through it.
	KindChaos = "chaos"
	// KindSleep stalls the shard for Millis of wall time — a diagnostic
	// load generator for exercising shedding and drain deadlines.
	KindSleep = "sleep"
)

// ErrCode classifies why a request was refused or failed. Codes are the
// machine-readable half of the explicit-shedding contract: a client can
// always tell backpressure (CodeOverloaded, CodeDeadline), fleet
// protection (CodeQuarantined), lifecycle (CodeDraining, CodeAborted)
// and device faults (CodeDevicePanic, CodeBootFailed) apart.
type ErrCode string

const (
	// CodeOverloaded — the shard queue (or its device table) is full.
	CodeOverloaded ErrCode = "overloaded"
	// CodeQuarantined — the shard's circuit breaker is open.
	CodeQuarantined ErrCode = "quarantined"
	// CodeDraining — the server is draining and admits nothing new.
	CodeDraining ErrCode = "draining"
	// CodeDeadline — the request exceeded its wall deadline in the queue
	// and was shed before running.
	CodeDeadline ErrCode = "deadline"
	// CodeAborted — the drain deadline expired before this request ran.
	CodeAborted ErrCode = "aborted"
	// CodeDevicePanic — the device's callbacks panicked; the panic was
	// contained and the device torn down.
	CodeDevicePanic ErrCode = "device_panic"
	// CodeBootFailed — the device world failed to settle.
	CodeBootFailed ErrCode = "boot_failed"
	// CodeUnknownDevice — the named device is not resident on its shard.
	CodeUnknownDevice ErrCode = "unknown_device"
	// CodeBadRequest — the request was malformed.
	CodeBadRequest ErrCode = "bad_request"
)

// Burst bounds. Admission answers bad_request, before the request takes
// a queue slot, for a monkey burst (Events) or a sleep (Millis) outside
// [0, bound]. A running request is never preempted, not even by its wall
// deadline, so these bound how long one request can hold its shard.
// MaxSleepMillis is rchserve's default -drain-timeout.
const (
	MaxBurstEvents = 10000
	MaxSleepMillis = 10000
)

// Request is one line of the wire protocol.
type Request struct {
	// ID is echoed on the response so clients can pipeline.
	ID string `json:"id,omitempty"`
	// Op selects the operation (Op* constants).
	Op string `json:"op"`
	// Device names the target device for boot/drive. The name, not the
	// client, decides the owning shard.
	Device string `json:"device,omitempty"`
	// Spec picks the device spec for boot (Spec* constants; empty means
	// SpecOracle).
	Spec string `json:"spec,omitempty"`
	// Handler picks the change handler armed at boot: "rch" (default),
	// "guarded", or "stock".
	Handler string `json:"handler,omitempty"`
	// Seed drives boot forking, monkey/chaos bursts, and canary runs.
	Seed uint64 `json:"seed,omitempty"`
	// Kind selects the drive burst (Kind* constants).
	Kind string `json:"kind,omitempty"`
	// Events sizes a monkey burst (0 means monkey's default), at most
	// MaxBurstEvents.
	Events int `json:"events,omitempty"`
	// Millis sizes a sleep stall, at most MaxSleepMillis.
	Millis int `json:"millis,omitempty"`
	// Batch carries the drive steps of an OpBatch request.
	Batch []BatchStep `json:"batch,omitempty"`
}

// BatchStep is one drive step inside an OpBatch request. It is the
// drive subset of Request: each step targets a resident device (the
// device name decides the owning shard, exactly as it does for OpDrive).
type BatchStep struct {
	// Device names the target device.
	Device string `json:"device"`
	// Kind selects the drive burst (Kind* constants).
	Kind string `json:"kind"`
	// Seed drives monkey/chaos bursts.
	Seed uint64 `json:"seed,omitempty"`
	// Events sizes a monkey burst.
	Events int `json:"events,omitempty"`
	// Millis sizes a sleep stall.
	Millis int `json:"millis,omitempty"`
}

// BatchResult is one step's outcome inside an OpBatch reply, in the
// request's step order (Index is the step's position in Request.Batch).
type BatchResult struct {
	Index int  `json:"index"`
	OK    bool `json:"ok"`
	// Code is set on every non-OK step (ErrCode constants) — the same
	// machine-readable shed/fault contract individual requests get.
	Code   ErrCode `json:"code,omitempty"`
	Detail string  `json:"detail,omitempty"`
	// Shard is the shard that owned (or refused) the step; -1 when the
	// step was refused before routing (a burst outside its bound).
	Shard int `json:"shard"`
}

// Response is one reply line.
type Response struct {
	ID string `json:"id,omitempty"`
	OK bool   `json:"ok"`
	// Code is set on every non-OK response (ErrCode constants).
	Code ErrCode `json:"code,omitempty"`
	// Detail is the human-readable half.
	Detail string `json:"detail,omitempty"`
	// Shard is the shard that owned (or refused) the request; -1 when no
	// shard was involved.
	Shard int `json:"shard"`
	// Token is the booted device's root activity token.
	Token int `json:"token,omitempty"`
	// Failures carries canary contract-failure lines.
	Failures []string `json:"failures,omitempty"`
	// Results carries per-step outcomes for OpBatch, ordered by step
	// index. The reply-level OK is the conjunction of the steps; Code is
	// the first failing step's code.
	Results []BatchResult `json:"results,omitempty"`
	// Shards carries per-shard health (OpHealth).
	Shards []ShardHealth `json:"shards,omitempty"`
	// Metrics and Canonical carry the merged snapshot (OpStats): the
	// full dump and its canonical sim-domain subset. RawMessage keeps
	// them JSON (the encoder compacts them onto the reply line).
	Metrics   json.RawMessage `json:"metrics,omitempty"`
	Canonical json.RawMessage `json:"canonical,omitempty"`
}

// ShardHealth is one shard's live state.
type ShardHealth struct {
	Shard int `json:"shard"`
	// State is the breaker rung: "serving", "quarantined", "probation".
	State string `json:"state"`
	// Devices is the resident device count.
	Devices int `json:"devices"`
	// QueueLen is the current queue depth.
	QueueLen int `json:"queue_len"`
}
