package serve

import (
	"fmt"
	"sync"

	"goldmine/internal/core"
	"goldmine/internal/rtl"
	"goldmine/internal/sched"
)

// poolKey identifies engines that are interchangeable: same design structure
// and the same engine configuration (checker options via the sched
// fingerprint, plus every Config knob that shapes an engine's behaviour).
// The shared-cache pointer is deliberately excluded — all pooled engines use
// the server's cache.
func poolKey(d *rtl.Design, cfg core.Config) string {
	return sched.DesignFingerprint(d) + "|" + sched.OptionsFingerprint(cfg.MC) +
		fmt.Sprintf("|w%d/i%d/c%d/win%d/b%v/f%v/sc%v/t%v/it%v",
			cfg.Workers, cfg.MaxIterations, cfg.MaxChecks, cfg.Window,
			cfg.BatchedChecks, cfg.AddFullCtxTrace, cfg.SignalCone,
			cfg.Timeout, cfg.IterationTimeout)
}

// enginePool parks idle core.Engine instances per poolKey so successive jobs
// on the same design+options reuse compiled simulator programs, warmed
// incremental SAT sessions, and model-checker reachability caches. An engine
// is checked out exclusively (core.Engine is not safe for two concurrent
// mining runs); concurrent same-key jobs simply build additional engines,
// which all share the process-wide verdict cache, so the expensive state —
// verdicts — is shared even when the engines are not.
type enginePool struct {
	mu     sync.Mutex
	idle   map[string][]*core.Engine
	perKey int // parked engines retained per key

	builds, reuses int64
}

func newEnginePool(perKey int) *enginePool {
	if perKey < 1 {
		perKey = 1
	}
	return &enginePool{idle: map[string][]*core.Engine{}, perKey: perKey}
}

// acquire checks an idle engine out or builds a fresh one via build.
func (p *enginePool) acquire(key string, build func() (*core.Engine, error)) (*core.Engine, error) {
	p.mu.Lock()
	if es := p.idle[key]; len(es) > 0 {
		e := es[len(es)-1]
		p.idle[key] = es[:len(es)-1]
		p.reuses++
		p.mu.Unlock()
		return e, nil
	}
	p.builds++
	p.mu.Unlock()
	return build()
}

// release parks an engine for reuse; a full per-key shelf drops it. Callers
// must not release an engine whose run panicked — a possibly-corrupt engine
// dies with its job, exactly like a panicked mc.Session is never repooled.
func (p *enginePool) release(key string, e *core.Engine) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.idle[key]) < p.perKey {
		p.idle[key] = append(p.idle[key], e)
	}
}

// PoolStats is the engine-reuse telemetry surfaced by /statsz.
type PoolStats struct {
	// Keys is the number of distinct design+options shelves.
	Keys int `json:"keys"`
	// Idle is the number of parked engines across shelves.
	Idle int `json:"idle"`
	// Builds and Reuses count acquire outcomes over the server's lifetime.
	Builds int64 `json:"builds"`
	Reuses int64 `json:"reuses"`
}

func (p *enginePool) stats() PoolStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	st := PoolStats{Keys: len(p.idle), Builds: p.builds, Reuses: p.reuses}
	for _, es := range p.idle {
		st.Idle += len(es)
	}
	return st
}
