package smd

import (
	"sort"
	"time"

	"softmem/internal/core"
)

// Stall-aware multi-tenant QoS.
//
// The size/slack victim ordering the daemon ships with treats every
// process as interchangeable: whoever holds the most reclaimable memory
// pays for everyone's pressure, even when that process is the one
// tenant with a tight latency SLO that is already stalling on reclaim
// yields. QoS makes tenants first-class: a process registers a
// TenantSpec (name, priority class, latency SLO), ships its cumulative
// reclamation-stall time in every Usage self-report (core.Usage.StallNs,
// fed by contended-Yield windows and spill promotions), and the daemon
// turns those reports into a per-process stall-rate EWMA. Victim
// selection then flips from "biggest first" to "least hurt first":
// reclaim from whoever stalls least relative to its SLO, and never take
// a process's last pages (the starvation floor), so even the designated
// victim class keeps making progress.
//
// The spill tier composes with this: within the chosen victim, demotion
// happens in hotness order — the SDS reclaim path walks entries by
// their lazily sampled CLOCK access stamps (see sds.EvictLRU), so the
// coldest entries of the least-pressured tenant go to disk first.

// TenantSpec attaches QoS identity to a registered process. The zero
// value means "no tenant": the process participates in legacy
// weight-ordered reclamation only.
type TenantSpec struct {
	// Tenant names the workload ("frontend", "batch-rebuild"). Empty
	// disables QoS treatment for the process.
	Tenant string `json:"tenant"`
	// Class is the priority class: 0 best-effort, 1 standard,
	// 2 latency-critical. Higher classes accumulate pressure faster for
	// the same stall rate, pushing them toward the back of the victim
	// order. Values outside [0,2] are clamped.
	Class int `json:"class"`
	// SLOMs is the tenant's latency SLO in milliseconds. A tighter SLO
	// scales the same stall rate into more pressure. 0 means the
	// reference SLO (qosRefSLOMs).
	SLOMs int `json:"slo_ms"`
}

const (
	// qosRefSLOMs is the reference SLO: a tenant with SLOMs == 100 sees
	// its stall EWMA unscaled; tighter SLOs amplify it proportionally.
	qosRefSLOMs = 100
	// qosAlpha is the stall-rate EWMA smoothing factor. 0.5 tracks load
	// shifts within a couple of heartbeats while riding out one noisy
	// report.
	qosAlpha = 0.5
	// qosFloorDiv sets the starvation floor: a QoS-ordered demand leaves
	// each victim at least usedPages/qosFloorDiv of its footprint, so no
	// class — however unpressured — is ever drained to zero.
	qosFloorDiv = 8
)

// SetTenant attaches (or, with a zero spec, detaches) a tenant spec to
// a registered process. QoS-ordered victim selection engages as soon as
// at least one registered process carries a spec; until then the daemon
// keeps its legacy weight ordering, so fleets that never call SetTenant
// see no behavior change.
func (d *Daemon) SetTenant(p *Proc, spec TenantSpec) {
	if spec.Class < 0 {
		spec.Class = 0
	} else if spec.Class > 2 {
		spec.Class = 2
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	ps, ok := d.procs[p.id]
	if !ok {
		return
	}
	ps.tenant = spec
}

// qosActiveLocked reports whether any registered process carries a
// tenant spec — the switch between legacy weight ordering and
// stall-aware ordering. Caller holds d.mu.
func (d *Daemon) qosActiveLocked() bool {
	for _, ps := range d.procs {
		if ps.tenant.Tenant != "" {
			return true
		}
	}
	return false
}

// qosNow returns the daemon clock, overridable via Config.Clock so
// tests drive the stall-rate EWMA deterministically.
func (d *Daemon) qosNow() time.Time {
	if d.cfg.Clock != nil {
		return d.cfg.Clock()
	}
	return time.Now()
}

// adoptUsageLocked replaces a process's usage self-report, folding the
// report's cumulative StallNs into the process's stall-rate EWMA first:
// rate = Δstall / Δwall over the inter-report window, smoothed with
// qosAlpha. A counter regression (process restart) resets the baseline
// instead of producing a negative rate. Caller holds d.mu.
func (d *Daemon) adoptUsageLocked(ps *procState, u core.Usage) {
	now := d.qosNow()
	switch {
	case ps.stallAt.IsZero() || u.StallNs < ps.usage.StallNs:
		// First report, or the counter went backwards: (re)baseline.
		ps.stallEWMA = 0
	default:
		wall := now.Sub(ps.stallAt).Nanoseconds()
		if wall > 0 {
			rate := float64(u.StallNs-ps.usage.StallNs) / float64(wall)
			ps.stallEWMA = qosAlpha*rate + (1-qosAlpha)*ps.stallEWMA
		}
	}
	ps.stallAt = now
	ps.usage = u
}

// pressureLocked scores how much a process is already hurting from
// reclamation, normalized against its SLO:
//
//	pressure = (1 + class) × stallEWMA × (qosRefSLOMs / sloMs)
//
// stallEWMA is the fraction of wall time the process's serving path
// spent stalled (contended reclaim yields + spill promotions), so a
// best-effort tenant idling at zero stall scores 0 while a critical
// tenant stalling 10% of the time against a 10 ms SLO scores 3.0.
// Victims are taken in ascending pressure. Caller holds d.mu.
func (d *Daemon) pressureLocked(ps *procState) float64 {
	sloMs := ps.tenant.SLOMs
	if sloMs <= 0 {
		sloMs = qosRefSLOMs
	}
	return float64(1+ps.tenant.Class) * ps.stallEWMA * (qosRefSLOMs / float64(sloMs))
}

// qosRankLocked is the static half of the victim ordering: the same
// (1 + class) × (qosRefSLOMs / sloMs) weighting as pressureLocked but
// without the measured stall term. It breaks pressure ties — in
// particular the cold-start case where nobody has stalled yet and every
// pressure is 0 — so a best-effort tenant with a loose SLO is still
// reclaimed before a critical one. Processes without a tenant spec rank
// as class 1 against the reference SLO. Caller holds d.mu.
func (d *Daemon) qosRankLocked(ps *procState) float64 {
	class, sloMs := ps.tenant.Class, ps.tenant.SLOMs
	if ps.tenant.Tenant == "" {
		class = 1
	}
	if sloMs <= 0 {
		sloMs = qosRefSLOMs
	}
	return float64(1+class) * (qosRefSLOMs / float64(sloMs))
}

// QoSInfo describes one process's QoS state, for the /qos endpoint and
// `smdctl qos`.
type QoSInfo struct {
	ID     ProcID `json:"id"`
	Name   string `json:"name"`
	Tenant string `json:"tenant,omitempty"`
	Class  int    `json:"class"`
	SLOMs  int    `json:"slo_ms"`
	// StallRatio is the stall-rate EWMA: the smoothed fraction of wall
	// time the process's serving path spent stalled on reclamation.
	StallRatio float64 `json:"stall_ratio"`
	// Pressure is the victim-ordering score; lowest is reclaimed first.
	Pressure    float64 `json:"pressure"`
	BudgetPages int     `json:"budget_pages"`
	UsedPages   int     `json:"used_pages"`
	// DemandedPages / ReleasedPages / SlackPages are this process's
	// lifetime totals as a reclamation source: pages the daemon asked it
	// for, pages it actually gave up, and budget slack harvested without
	// disturbing it. Together they show where reclamation pressure
	// landed.
	DemandedPages int64 `json:"demanded_pages"`
	ReleasedPages int64 `json:"released_pages"`
	SlackPages    int64 `json:"slack_pages"`
}

// QoSSnapshot lists registered processes in victim order — ascending
// pressure, the order a QoS-active reclaim cycle would target them —
// with their tenant specs, stall EWMAs, and lifetime reclamation-source
// counters.
func (d *Daemon) QoSSnapshot() []QoSInfo {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make([]QoSInfo, 0, len(d.procs))
	rank := make(map[ProcID]float64, len(d.procs))
	weight := make(map[ProcID]float64, len(d.procs))
	for _, ps := range d.procs {
		sloMs := ps.tenant.SLOMs
		if sloMs <= 0 {
			sloMs = qosRefSLOMs
		}
		rank[ps.id] = d.qosRankLocked(ps)
		weight[ps.id] = d.weightLocked(ps)
		out = append(out, QoSInfo{
			ID:            ps.id,
			Name:          ps.name,
			Tenant:        ps.tenant.Tenant,
			Class:         ps.tenant.Class,
			SLOMs:         sloMs,
			StallRatio:    ps.stallEWMA,
			Pressure:      d.pressureLocked(ps),
			BudgetPages:   ps.budget,
			UsedPages:     ps.usage.UsedPages,
			DemandedPages: ps.demandedPages,
			ReleasedPages: ps.releasedPages,
			SlackPages:    ps.slackPages,
		})
	}
	// Mirror candidatesLocked exactly so the rendered "victim order" is
	// the order a QoS-active reclaim cycle would actually target.
	sort.Slice(out, func(i, j int) bool {
		if out[i].Pressure != out[j].Pressure {
			return out[i].Pressure < out[j].Pressure
		}
		ri, rj := rank[out[i].ID], rank[out[j].ID]
		if ri != rj {
			return ri < rj
		}
		wi, wj := weight[out[i].ID], weight[out[j].ID]
		if wi != wj {
			return wi > wj
		}
		return out[i].ID < out[j].ID
	})
	return out
}
