package smd

// The daemon's status payloads: what its HTTP endpoints serve, and what
// smdctl, the chaos harness and the tests decode. Fields are declared in
// the alphabetical order of their JSON keys.

// Status is the /statusz payload (/smd on a softkv that embeds the
// daemon): the machine's ledger and its registered processes.
type Status struct {
	Procs []ProcInfo `json:"procs"`
	Stats Stats      `json:"stats"`
}

// EventLog is the /events payload: the audit ring, oldest first, and
// how many older events the ring has overwritten.
type EventLog struct {
	Dropped int64   `json:"dropped"`
	Events  []Event `json:"events"`
}

// TraceLog is the /traces payload: the reclaim-cycle ring, oldest first,
// and how many older traces the ring has overwritten.
type TraceLog struct {
	Dropped int64   `json:"dropped"`
	Traces  []Trace `json:"traces"`
}

// QoSTable is the /qos payload: every process in victim order.
type QoSTable struct {
	QoS []QoSInfo `json:"qos"`
}

// Endpoints returns the daemon's JSON status endpoints by path, each
// serving a fresh snapshot per request: the one table cmd/smd and a
// softkv embedding the daemon both mount.
func (d *Daemon) Endpoints() map[string]func() any {
	return map[string]func() any{
		"statusz": func() any { return Status{Procs: d.Snapshot(), Stats: d.Stats()} },
		"events":  func() any { return EventLog{Dropped: d.eventsDropped.Load(), Events: d.Events()} },
		"traces":  func() any { return TraceLog{Dropped: d.tracesDropped.Load(), Traces: d.Traces()} },
		"qos":     func() any { return QoSTable{QoS: d.QoSSnapshot()} },
	}
}
