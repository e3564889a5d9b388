package node

import (
	"errors"
	"os"
	"time"

	"repro/internal/engine"
	"repro/internal/persist"
	"repro/internal/replic"
)

// scrubLoop runs one io-throttled integrity pass per ScrubInterval over
// the checkpoint fan-out: every shard's manifest, WAL hash chain and
// snapshot Merkle root, plus the engine-manifest binding. A dirty pass
// latches persistBad (readyz → 503) and, on first detection, queues an
// incident; with RepairFrom set it also attempts repair from the peer.
func (n *Node) scrubLoop() {
	dir := n.cfg.PersistDir
	dirs := make([]string, n.eng.Shards())
	for i := range dirs {
		dirs[i] = engine.ShardDir(dir, i)
	}
	scr := persist.NewScrubber(persist.ScrubConfig{
		Dirs:      dirs,
		RateBytes: n.cfg.ScrubRate,
		Metrics:   n.reg,
		Prefix:    "bmwd_persist",
		Flight:    n.flight,
		// The throttle must not hold Close up.
		Sleep: func(d time.Duration) {
			t := time.NewTimer(d)
			defer t.Stop()
			select {
			case <-t.C:
			case <-n.done:
			}
		},
		OnCorruption: func(dir string, findings []persist.Finding) {
			n.logger.Error("scrub: durable state corrupt",
				"dir", dir, "findings", len(findings), "first", findings[0].String())
			n.trigger("integrity", dir+": "+findings[0].String())
		},
	})
	t := time.NewTicker(n.cfg.ScrubInterval)
	defer t.Stop()
	for {
		select {
		case <-n.done:
			return
		case <-t.C:
		}
		dirty := false
		for range dirs {
			select {
			case <-n.done:
				return
			default:
			}
			if r := scr.Step(); r != nil && !r.Clean() {
				dirty = true
			}
		}
		if err := verifyEngineBinding(dir); err != nil {
			dirty = true
			if !n.persistBad.Swap(true) {
				n.logger.Error("scrub: engine manifest binding broken", "err", err)
				n.trigger("integrity", err.Error())
			}
		}
		if !dirty {
			continue
		}
		n.persistBad.Store(true)
		if n.cfg.RepairFrom != "" && n.repair() {
			n.persistBad.Store(false)
		}
	}
}

// repair pulls what the local checkpoint lacks or holds rotted from the
// RepairFrom peer; true means the fan-out re-verified clean afterwards.
func (n *Node) repair() bool {
	peer := n.cfg.RepairFrom
	f, err := replic.DialFetcher(peer, 5*time.Second)
	if err != nil {
		n.logger.Error("scrub: repair peer unreachable", "peer", peer, "err", err)
		return false
	}
	defer f.Close()
	rep, err := replic.RepairCheckpoint(n.cfg.PersistDir, f, replic.RepairConfig{
		Metrics: n.reg, Prefix: "bmwd_repl", Flight: n.flight,
	})
	if err != nil || !rep.Clean {
		n.logger.Error("scrub: anti-entropy repair did not converge", "peer", peer, "err", err)
		return false
	}
	n.logger.Warn("scrub: anti-entropy repair converged, durable state restored",
		"peer", peer, "files_fetched", rep.FilesFetched, "bytes_fetched", rep.BytesFetched)
	return true
}

// verifyEngineBinding checks the checkpoint's ENGINE.json and that it
// still seals every shard manifest. No checkpoint yet is fine.
func verifyEngineBinding(dir string) error {
	m, err := engine.LoadEngineManifest(dir)
	if errors.Is(err, os.ErrNotExist) {
		return nil
	}
	if err != nil {
		return err
	}
	return m.VerifyBinding(dir)
}
