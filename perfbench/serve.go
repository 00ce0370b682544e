package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"time"

	"eotora/internal/core"
	"eotora/internal/obs"
	"eotora/internal/par"
	"eotora/internal/serve"
	"eotora/internal/topology"
	"eotora/internal/trace"
	"eotora/internal/units"
)

// drillSlots is how many slots the snapshot/restore drill ticks on both
// the original and the restored daemon.
const drillSlots = 20

// serveBuild is the daemon path: the eotorad construction (scenario,
// churned generator, initial state β_1, policy, serve.NewDaemon) with its
// HTTP handler driven in memory, lockstep, by one producer that posts each
// slot's serve.DiffStates events and then ticks. The churn schedule is the
// default regime, churn intensity 1 in the CLIs.
func serveBuild(spec topology.Spec, cc ctrlConfig) func(int64, *tracer, *par.Pool) (instance, error) {
	return func(seed int64, tr *tracer, pool *par.Pool) (instance, error) {
		sc, err := newScenario(spec)
		if err != nil {
			return nil, err
		}
		gen, err := trace.NewGenerator(sc.Net, trace.DefaultGeneratorConfig(), seed)
		if err != nil {
			return nil, err
		}
		src, err := trace.NewChurnSchedule(trace.DefaultChurnConfig(seed), sc.Net, gen)
		if err != nil {
			return nil, err
		}
		initial := src.Next()
		pol, err := newPolicy(sc.Sys, cc, seed, tr, pool)
		if err != nil {
			return nil, err
		}
		// eotorad's defaults in manual-tick mode: escalation is armed but
		// has no budget to arm, so no slot is ever escalated.
		daemon, err := serve.NewDaemon(pol, initial, serve.Config{QueueCap: 65536, DegradeAt: 0.75})
		if err != nil {
			return nil, err
		}
		s := &serveInstance{sys: sc.Sys, src: src, daemon: daemon, h: daemon.Handler(), prev: initial, tr: tr}
		if tr != nil {
			s.reg = obs.New()
		}
		return s, nil
	}
}

// serveInstance is one daemon and the producer state feeding it.
type serveInstance struct {
	sys    *core.System
	src    trace.Source
	daemon *serve.Daemon
	h      http.Handler
	prev   *trace.State // the state of the last decided slot
	slot   int
	tr     *tracer
	reg    *obs.Registry
}

// input is one slot's producer output.
type input struct {
	slot     int
	state    *trace.State
	body     []byte // the JSON event batch; nil for slot 1, a bare tick
	events   int
	genBytes float64
}

// produce generates slot t's state and encodes its event batch. Slot 1
// decides the daemon's initial state with no events.
func (s *serveInstance) produce(t int) (input, error) {
	in := input{slot: t, state: s.prev}
	if t == 1 {
		return in, nil
	}
	a0 := heapAlloc()
	sp := s.tr.begin("trace.next")
	in.state = s.src.Next()
	s.tr.end(sp)
	in.genBytes = heapAlloc() - a0
	events := serve.DiffStates(s.prev, in.state)
	body, err := json.Marshal(events)
	if err != nil {
		return in, fmt.Errorf("slot %d: encoding events: %w", t, err)
	}
	in.body, in.events = body, len(events)
	return in, nil
}

func (s *serveInstance) step(t int) (sample, error) {
	traced := false
	if s.tr != nil {
		traced = s.tr.startSlot(t)
		s.daemon.SetObs(s.tr.registry(s.reg))
	}
	root := s.tr.begin("slot")
	in, err := s.produce(t)
	if err != nil {
		return sample{}, err
	}
	out, err := s.decide(in)
	s.tr.end(root)
	out.traced = traced
	return out, err
}

// decide posts the slot's events, ticks, and checks the published
// decision. The timed region runs from the start of the events POST to the
// end of the tick response.
func (s *serveInstance) decide(in input) (sample, error) {
	out := sample{slot: in.slot, events: in.events, genBytes: in.genBytes}
	a0 := heapAlloc()
	t0 := time.Now()
	var ingest *httptest.ResponseRecorder
	if in.body != nil {
		sp := s.tr.begin("serve.ingest")
		ingest = s.post("/v1/events", in.body)
		s.tr.end(sp)
	}
	sp := s.tr.begin("serve.tick")
	tick := s.post("/v1/tick", nil)
	s.tr.end(sp)
	out.slotMs = msSince(t0)
	out.allocBytes = heapAlloc() - a0
	out.loopMs = out.slotMs

	var ir serve.IngestResponse
	if ingest != nil {
		if ingest.Code != http.StatusOK {
			return out, fmt.Errorf("slot %d: POST /v1/events: %d %s", in.slot, ingest.Code, ingest.Body.String())
		}
		if err := json.Unmarshal(ingest.Body.Bytes(), &ir); err != nil {
			return out, fmt.Errorf("slot %d: ingest response: %w", in.slot, err)
		}
	}
	if tick.Code != http.StatusOK {
		return out, fmt.Errorf("slot %d: POST /v1/tick: %d %s", in.slot, tick.Code, tick.Body.String())
	}
	var dec serve.Decision
	if err := json.Unmarshal(tick.Body.Bytes(), &dec); err != nil {
		return out, fmt.Errorf("slot %d: tick response: %w", in.slot, err)
	}
	s.prev, s.slot = in.state, in.slot

	out.eventsBad = in.events - ir.Accepted + dec.EventsInvalid
	var eventsErr error
	if out.eventsBad > 0 || dec.EventsApplied != in.events {
		eventsErr = fmt.Errorf("slot %d: %d events posted, %d accepted, %d shed, %d applied, %d invalid",
			in.slot, in.events, ir.Accepted, ir.Shed, dec.EventsApplied, dec.EventsInvalid)
	}
	freq := make(core.Frequencies, len(dec.FreqHz))
	for n, f := range dec.FreqHz {
		freq[n] = units.Frequency(f)
	}
	out.err = errors.Join(
		rungErr(in.slot, dec.Slot, dec.Rung),
		eventsErr,
		s.sys.Validate(core.Selection{Station: dec.Station, Server: dec.Server}, in.state),
		s.sys.ValidateFrequencies(freq),
	)
	out.latency = dec.LatencySeconds / float64(in.state.ActiveDevices(len(in.state.TaskSizes)))
	out.cost = dec.EnergyCostUSD
	out.backlog = dec.Backlog
	out.digest = decisionDigest(dec.Station, dec.Server, dec.FreqHz, dec.Backlog)
	return out, nil
}

// post serves one in-memory request through the daemon's handler.
func (s *serveInstance) post(path string, body []byte) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	s.h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
	return rec
}

func (s *serveInstance) counts() layerCounts { return countsOf(s.reg) }
func (s *serveInstance) budget() float64     { return s.sys.Budget.Dollars() }

// drill is the snapshot/restore drill: WriteSnapshot → ReadSnapshot →
// Restore into a freshly built daemon, then both daemons tick the same
// drillSlots slots and must publish bit-identical decisions.
func (s *serveInstance) drill(d *runner, res *runResult) error {
	s.tr.stop()
	s.daemon.SetObs(nil)
	var buf bytes.Buffer
	t0 := time.Now()
	if err := s.daemon.WriteSnapshot(&buf); err != nil {
		return fmt.Errorf("drill: %w", err)
	}
	res.snapshotMs = msSince(t0)

	built, err := d.w.build(d.seed, nil, d.pool)
	if err != nil {
		return fmt.Errorf("drill: %w", err)
	}
	fresh := built.(*serveInstance)
	t0 = time.Now()
	snap, err := serve.ReadSnapshot(&buf)
	if err != nil {
		return fmt.Errorf("drill: %w", err)
	}
	if err := fresh.daemon.Restore(snap); err != nil {
		return fmt.Errorf("drill: %w", err)
	}
	res.restoreMs = msSince(t0)
	fresh.prev = s.prev

	for k := 0; k < drillSlots; k++ {
		in, err := s.produce(s.slot + 1)
		if err != nil {
			return err
		}
		a, err := s.decide(in)
		if err != nil {
			return err
		}
		b, err := fresh.decide(in)
		if err != nil {
			return fmt.Errorf("drill: restored daemon: %w", err)
		}
		var same error
		if a.digest != b.digest {
			same = fmt.Errorf("drill slot %d: restored daemon decided %016x, original %016x", in.slot, b.digest, a.digest)
		}
		res.check(errors.Join(a.err, b.err, same))
	}
	return nil
}
