// Package ipc simulates the binder boundary between an app process and the
// system server. Every lifecycle command the ATMS issues and every
// activity-start request the activity thread makes crosses this boundary,
// paying the cost model's per-hop latency — the reason even RCHDroid's
// coin-flip path has a latency floor.
package ipc

import (
	"time"

	"rchdroid/internal/looper"
	"rchdroid/internal/sim"
)

// Txn is a binder transaction code: the lifecycle commands the ATMS
// sends an activity thread and the upcalls a thread makes to the ATMS.
type Txn uint8

// The transactions of the lifecycle path.
const (
	ScheduleLaunch Txn = iota
	ScheduleSunnyLaunch
	ScheduleFlip
	CancelSunny
	RuntimeChange
	MoveToBackground
	MoveToForeground
	DestroyShadow
	DestroyFinished
	StartActivity
	ActivityResumed
	ShadowReleased

	numTxns
)

// txnNames is each transaction's <txn> part of its message name.
var txnNames = [numTxns]string{
	ScheduleLaunch:      "scheduleLaunch",
	ScheduleSunnyLaunch: "scheduleSunnyLaunch",
	ScheduleFlip:        "scheduleFlip",
	CancelSunny:         "cancelSunny",
	RuntimeChange:       "runtimeChange",
	MoveToBackground:    "moveToBackground",
	MoveToForeground:    "moveToForeground",
	DestroyShadow:       "destroyShadow",
	DestroyFinished:     "destroyFinished",
	StartActivity:       "startActivity",
	ActivityResumed:     "activityResumed",
	ShadowReleased:      "shadowReleased",
}

// Endpoint is one side of the binder boundary: a named looper that
// receives transactions.
type Endpoint struct {
	Name   string
	Looper *looper.Looper

	// msgNames holds each transaction's message name,
	// "binder:<endpoint>:<txn>", built on the transaction's first use.
	msgNames [numTxns]string
}

// NewEndpoint wraps a looper as a transaction target.
func NewEndpoint(name string, l *looper.Looper) *Endpoint {
	return &Endpoint{Name: name, Looper: l}
}

// msgName returns the looper message name transaction t is delivered
// under.
func (e *Endpoint) msgName(t Txn) string {
	if e.msgNames[t] == "" {
		e.msgNames[t] = "binder:" + e.Name + ":" + txnNames[t]
	}
	return e.msgNames[t]
}

// Bus carries one-way transactions between endpoints. Android binder calls
// in the lifecycle path are oneway (async) transactions; request/response
// pairs are modelled as two one-way hops, which is also how the paper's
// latency decomposes (activity thread → ATMS → activity thread).
type Bus struct {
	hop   time.Duration
	count uint64
	bytes int64
}

// NewBus returns a bus whose every hop costs hop of virtual latency.
func NewBus(hop time.Duration) *Bus {
	return &Bus{hop: hop}
}

// Clone returns an independent bus with the same hop latency and
// accumulated transaction/byte counters, for the device fork facility.
func (b *Bus) Clone() *Bus {
	cp := *b
	return &cp
}

// HopLatency returns the per-transaction latency.
func (b *Bus) HopLatency() time.Duration { return b.hop }

// Transactions returns how many transactions have been sent.
func (b *Bus) Transactions() uint64 { return b.count }

// BytesTransferred returns the cumulative payload size accounted so far.
func (b *Bus) BytesTransferred() int64 { return b.bytes }

// Transact delivers a one-way transaction to the endpoint: after the hop
// latency, fn runs on the endpoint's looper with the given execution
// cost, as a message named "binder:<endpoint>:<txn>". payloadBytes sizes
// the parcel for accounting (pass 0 when irrelevant).
func (b *Bus) Transact(to *Endpoint, txn Txn, payloadBytes int64, handleCost time.Duration, fn func()) {
	b.count++
	b.bytes += payloadBytes
	to.Looper.PostDelayed(b.hop, to.msgName(txn), handleCost, fn)
}

// TransactAt delivers a transaction like Transact but delays dispatch
// until at least `at` plus the hop latency, for callers replaying a
// scripted timeline.
func (b *Bus) TransactAt(at sim.Time, to *Endpoint, txn Txn, payloadBytes int64, handleCost time.Duration, fn func()) {
	b.count++
	b.bytes += payloadBytes
	now := to.Looper.Scheduler().Now()
	delay := at.Sub(now)
	if delay < 0 {
		delay = 0
	}
	to.Looper.PostDelayed(delay+b.hop, to.msgName(txn), handleCost, fn)
}
