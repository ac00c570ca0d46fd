package analytics

// Canonical, byte-stable encoding of a DayAgg. gob encodes Go maps in
// iteration order, which is randomized — two structurally equal
// aggregates gob-encode to different bytes. The merge-equivalence and
// golden-figure tests need "byte-identical" to mean something, so
// CanonicalBytes projects a DayAgg onto a fully sorted, slice-only
// image first and gob-encodes that. Nil and empty maps canonicalise
// identically, so a gob round-trip (which decodes empty maps as nil)
// does not change an aggregate's canonical bytes.

import (
	"bytes"
	"encoding/gob"
	"sort"

	"repro/internal/classify"
	"repro/internal/wire"
)

type canonSvcUse struct {
	Svc      classify.Service
	Down, Up uint64
}

type canonSub struct {
	ID     uint32
	Tech   uint8
	Flows  int
	Down   uint64
	Up     uint64
	PerSvc []canonSvcUse
}

type canonKV struct {
	Key string
	Val uint64
}

type canonSvcBytes struct {
	Svc classify.Service
	Val uint64
}

type canonRTT struct {
	Svc classify.Service
	Ms  []float64
}

type canonIP struct {
	Addr     wire.Addr
	Bytes    uint64
	Services []classify.Service
}

type canonDomain struct {
	Svc     classify.Service
	Domains []canonKV
}

// CanonicalVersion is the canonical-encoding schema epoch. Version 2
// marks the DayAgg that can carry sketches: Sketches, like Cols, is
// deliberately excluded from the projection (approximation state never
// participates in byte-identity), and the explicit version field makes
// encodings from different epochs compare unequal instead of
// accidentally equal.
const CanonicalVersion = 2

type canonAgg struct {
	Version      int
	Day          int64 // unix seconds, UTC midnight
	Subs         []canonSub
	ProtoBytes   []uint64
	DownBins     [][]uint64
	ServiceBytes []canonSvcBytes
	RTT          []canonRTT
	ServerIPs    []canonIP
	DomainBytes  []canonDomain
	QUICVersions []canonKV
	TotalDown    uint64
	TotalUp      uint64
	Flows        uint64
}

func sortedServices[V any](m map[classify.Service]V) []classify.Service {
	keys := make([]classify.Service, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	return keys
}

// CanonicalBytes returns a deterministic encoding of the aggregate:
// structurally equal DayAggs yield equal bytes, on every run, in any
// map iteration order. Used wherever "byte-identical aggregates" is
// asserted — the merge-equivalence properties, the golden
// corpus — and cheap enough to run on every CI aggregate.
func CanonicalBytes(d *DayAgg) ([]byte, error) {
	c := canonAgg{
		Version:    CanonicalVersion,
		Day:        d.Day.Unix(),
		ProtoBytes: d.ProtoBytes[:],
		TotalDown:  d.TotalDown,
		TotalUp:    d.TotalUp,
		Flows:      d.Flows,
	}
	for t := range d.DownBins {
		c.DownBins = append(c.DownBins, d.DownBins[t][:])
	}

	subIDs := make([]uint32, 0, len(d.Subs))
	for id := range d.Subs {
		subIDs = append(subIDs, id)
	}
	sort.Slice(subIDs, func(i, j int) bool { return subIDs[i] < subIDs[j] })
	for _, id := range subIDs {
		sd := d.Subs[id]
		cs := canonSub{ID: id, Tech: uint8(sd.Tech), Flows: sd.Flows, Down: sd.Down, Up: sd.Up}
		for _, svc := range sortedServices(sd.PerSvc) {
			use := sd.PerSvc[svc]
			cs.PerSvc = append(cs.PerSvc, canonSvcUse{Svc: svc, Down: use.Down, Up: use.Up})
		}
		c.Subs = append(c.Subs, cs)
	}

	for _, svc := range sortedServices(d.ServiceBytes) {
		c.ServiceBytes = append(c.ServiceBytes, canonSvcBytes{Svc: svc, Val: d.ServiceBytes[svc]})
	}
	for _, svc := range sortedServices(d.RTTMinMs) {
		c.RTT = append(c.RTT, canonRTT{Svc: svc, Ms: d.RTTMinMs[svc]})
	}

	addrs := make([]wire.Addr, 0, len(d.ServerIPs))
	for a := range d.ServerIPs {
		addrs = append(addrs, a)
	}
	sort.Slice(addrs, func(i, j int) bool { return bytes.Compare(addrs[i][:], addrs[j][:]) < 0 })
	for _, a := range addrs {
		info := d.ServerIPs[a]
		ci := canonIP{Addr: a, Bytes: info.Bytes}
		for _, svc := range sortedServices(info.Services) {
			if info.Services[svc] {
				ci.Services = append(ci.Services, svc)
			}
		}
		c.ServerIPs = append(c.ServerIPs, ci)
	}

	for _, svc := range sortedServices(d.DomainBytes) {
		doms := d.DomainBytes[svc]
		cd := canonDomain{Svc: svc}
		names := make([]string, 0, len(doms))
		for n := range doms {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			cd.Domains = append(cd.Domains, canonKV{Key: n, Val: doms[n]})
		}
		c.DomainBytes = append(c.DomainBytes, cd)
	}

	vers := make([]string, 0, len(d.QUICVersions))
	for v := range d.QUICVersions {
		vers = append(vers, v)
	}
	sort.Strings(vers)
	for _, v := range vers {
		c.QUICVersions = append(c.QUICVersions, canonKV{Key: v, Val: d.QUICVersions[v]})
	}

	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&c); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}
