package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sync"

	"jarvis/internal/core"
	"jarvis/internal/stream"
	"jarvis/internal/wire"
)

// referenceDigest recomputes the run's result rows in process: the same
// seeded generators and adaptive sources, each epoch's output fed
// straight into an SP engine in the order the shipper frames it, with no
// encoding, socket, receiver, checkpoint or standby in between. epochs[i]
// is how many epochs agent i shipped. It returns the SHA-256 of the
// canonical rows and their count.
func referenceDigest(wl *workloadSpec, seed uint64, epochs []uint64) (string, int64, error) {
	proc, err := core.NewProcessor(wl.query())
	if err != nil {
		return "", 0, err
	}
	eng := proc.Engine()
	for i := range epochs {
		eng.RegisterSource(uint32(i + 1))
	}
	var (
		mu   sync.Mutex // orders Advance with the hash writes
		h    = sha256.New()
		rows int64
	)
	advance := func() error {
		mu.Lock()
		defer mu.Unlock()
		b := eng.Advance()
		enc, err := encodeRows(b)
		if err != nil {
			return err
		}
		h.Write(enc)
		rows += int64(len(b))
		return nil
	}
	errs := make([]error, len(epochs))
	var wg sync.WaitGroup
	for i, n := range epochs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = referenceAgent(wl, seed, i, n, eng, advance)
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return "", 0, err
		}
	}
	if err := advance(); err != nil {
		return "", 0, err
	}
	return hex.EncodeToString(h.Sum(nil)), rows, nil
}

func referenceAgent(wl *workloadSpec, seed uint64, i int, n uint64, eng *stream.SPEngine, advance func() error) error {
	id := uint32(i + 1)
	src, err := core.NewSource(wl.query(), core.SourceOptions{
		ID:         id,
		BudgetFrac: wl.budget,
		RateMbps:   wl.rateMbps,
		Adapt:      true,
	})
	if err != nil {
		return err
	}
	gen := wl.newGen(seed, i)
	var cb wire.ColumnarBatch
	for e := uint64(0); e < n; e++ {
		cb.Reset()
		gen.NextWindowCols(epochMicros, &cb)
		res, err := src.RunEpochColumnar(&cb)
		if err != nil {
			return err
		}
		if err := ingestEpoch(eng, id, res); err != nil {
			return fmt.Errorf("reference agent %d epoch %d: %w", id, e+1, err)
		}
		if err := advance(); err != nil {
			return err
		}
	}
	return nil
}

// ingestEpoch applies one epoch result in the shipper's frame order: per
// stage row drains then columnar drains, then results, then the
// watermark.
func ingestEpoch(eng *stream.SPEngine, id uint32, res stream.EpochResult) error {
	for stage := 0; stage < max(len(res.Drains), len(res.ColDrains)); stage++ {
		if stage < len(res.Drains) && len(res.Drains[stage]) > 0 {
			if err := eng.Ingest(stage, res.Drains[stage]); err != nil {
				return err
			}
		}
		if stage < len(res.ColDrains) && len(res.ColDrains[stage].Secs) > 0 {
			if err := eng.IngestColumnar(stage, &res.ColDrains[stage]); err != nil {
				return err
			}
		}
	}
	if len(res.Results) > 0 {
		if err := eng.Ingest(res.ResultStage, res.Results); err != nil {
			return err
		}
	}
	if len(res.ColResults.Secs) > 0 {
		if err := eng.IngestColumnar(res.ResultStage, &res.ColResults); err != nil {
			return err
		}
	}
	eng.ObserveWatermark(id, res.Watermark)
	return nil
}
