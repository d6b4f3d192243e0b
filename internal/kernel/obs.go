package kernel

import (
	"pfirewall/internal/obs"
	"pfirewall/internal/pf"
)

// kernelObs is the kernel's attached instrumentation: a per-syscall
// counter array indexed directly by syscall number and a sampled
// histogram over the whole mediation gauntlet (DAC → MAC → PF) of one
// object access. As in the PF engine, one atomic pointer load decides
// whether any of it runs.
type kernelObs struct {
	syscalls [nrCount]*obs.Counter
	// sampleMask gates latency timestamps against MediationCount — a
	// counter mediate bumps regardless, so the sampling decision reuses
	// that read-modify-write instead of adding one.
	sampleMask uint64
	medLatency *obs.Histogram

	// tracer, when non-nil, receives decision-provenance spans from
	// syscalls selected by traceMask against SyscallCount (the same
	// piggybacked sampling as the latency histogram). Nil means tracing is
	// disabled and every syscall pays exactly one nil check.
	tracer    *obs.Tracer
	traceMask uint64
}

// ObsConfig configures kernel-level observability; SampleEvery is
// forwarded to the engine's AttachObs.
type ObsConfig struct {
	// SampleEvery throttles latency timestamps (default 16; 1 samples
	// everything). Shared by the kernel mediation histogram and the PF
	// gauntlet histograms.
	SampleEvery int
	// TraceEvery samples one syscall in TraceEvery for decision-provenance
	// tracing (every request the sampled syscall mediates carries a span).
	// 0 disables tracing entirely; 1 traces every syscall.
	TraceEvery int
}

// AttachObs registers the whole mediation stack's metric series on reg:
// kernel syscall/mediation counters and latency, the vfs dcache
// statistics, the MAC adversary-cache statistics, the IPC registry
// statistics, and — when a PF engine is attached — the engine's own
// series. Call after AttachPF.
func (k *Kernel) AttachObs(reg *obs.Registry, cfg ObsConfig) {
	if cfg.SampleEvery <= 0 {
		cfg.SampleEvery = 16
	}
	ob := &kernelObs{
		sampleMask: obs.SampleMask(cfg.SampleEvery),
		medLatency: reg.Histogram("kernel_mediation_latency_ns",
			"Sampled latency of one object-access mediation (DAC, MAC, PF), in nanoseconds."),
	}
	if cfg.TraceEvery > 0 {
		ob.tracer = reg.Tracer("pf_spans", obs.TraceConfig{})
		ob.traceMask = obs.SampleMask(cfg.TraceEvery)
		reg.CounterFunc("trace_spans_total",
			"Decision-provenance spans published.", ob.tracer.Total)
		reg.CounterFunc("trace_span_drops_total",
			"Spans dropped on full subscriber buffers.", ob.tracer.Dropped)
		reg.GaugeFunc("trace_subscribers",
			"Live span-stream subscriptions.", func() uint64 {
				return uint64(ob.tracer.Subscribers())
			})
	}
	for nr := Syscall(1); nr < nrCount; nr++ {
		ob.syscalls[nr] = reg.Counter("kernel_syscalls_total",
			"Syscalls dispatched by number.", obs.L("nr", nr.String()))
	}
	reg.CounterFunc("kernel_mediations_total",
		"Object accesses mediated during path resolution and IPC.", k.MediationCount.Load)

	fs := k.FS
	reg.CounterFunc("vfs_resolutions_total", "Path resolutions.", fs.Resolutions.Load)
	reg.CounterFunc("vfs_components_total", "Path components walked.", fs.Components.Load)
	reg.CounterFunc("vfs_dcache_hits_total", "Dentry-cache hits.", fs.DcacheHits.Load)
	reg.CounterFunc("vfs_dcache_misses_total", "Dentry-cache misses.", fs.DcacheMisses.Load)
	reg.CounterFunc("vfs_dcache_invalidations_total",
		"Directory-generation bumps invalidating cached dentries.", fs.DcacheInvalidations.Load)
	reg.CounterFunc("vfs_dcache_purges_total",
		"Wholesale dentry-cache purges at the entry cap.", fs.DcachePurges.Load)

	pol := k.Policy
	reg.CounterFunc("mac_adv_cache_hits_total",
		"Adversary-accessibility lookups served from the snapshot.", pol.AdvCacheHits.Load)
	reg.CounterFunc("mac_adv_cache_misses_total",
		"Adversary-accessibility lookups recomputed from the policy.", pol.AdvCacheMisses.Load)
	reg.GaugeFunc("mac_adv_epoch",
		"Adversary-cache epoch (policy edits that invalidated the snapshot).", pol.AdvEpoch)

	st := &k.IPC.Stats
	reg.CounterFunc("ipc_binds_total", "Socket binds by namespace.", st.BindsFile.Load, obs.L("ns", "fs"))
	reg.CounterFunc("ipc_binds_total", "Socket binds by namespace.", st.BindsAbstract.Load, obs.L("ns", "abstract"))
	reg.CounterFunc("ipc_binds_total", "Socket binds by namespace.", st.BindsPort.Load, obs.L("ns", "port"))
	reg.CounterFunc("ipc_connects_total", "Connections established.", st.Connects.Load)
	reg.CounterFunc("ipc_backlog_drops_total", "Connects refused on a full backlog.", st.BacklogDrops.Load)
	reg.CounterFunc("ipc_bytes_queued_total", "Bytes queued by transport.", st.StreamBytes.Load, obs.L("kind", "stream"))
	reg.CounterFunc("ipc_bytes_queued_total", "Bytes queued by transport.", st.FifoBytes.Load, obs.L("kind", "fifo"))

	k.obs.Store(ob)
	if k.PF != nil {
		k.PF.AttachObs(reg, pf.ObsConfig{SampleEvery: cfg.SampleEvery})
	}
}

// Tracer returns the attached decision-provenance tracer, or nil when
// observability is not attached or tracing is disabled.
func (k *Kernel) Tracer() *obs.Tracer {
	if ob := k.obs.Load(); ob != nil {
		return ob.tracer
	}
	return nil
}
