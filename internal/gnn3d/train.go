package gnn3d

import (
	"context"
	"math"
	"math/rand"

	"analogfold/internal/ad"
	"analogfold/internal/fault"
	"analogfold/internal/hetgraph"
	"analogfold/internal/obs"
	"analogfold/internal/optim"
	"analogfold/internal/parallel"
	"analogfold/internal/tensor"
)

// Sample is one training example: a guidance assignment and the five metrics
// measured by routing with it and simulating the extracted layout.
type Sample struct {
	C *tensor.Tensor // [numNets × 3]
	Y [NumMetrics]float64
}

// TrainConfig controls Fit.
type TrainConfig struct {
	Epochs      int
	LR          float64
	Seed        int64
	ValFrac     float64
	WeightDecay float64
	// Patience stops training after this many epochs without validation
	// improvement and restores the best-validation weights (set negative to
	// disable).
	Patience int

	// BatchSize groups this many samples per optimizer step. Within a batch
	// the per-sample gradients are computed in parallel on model clones and
	// reduced (averaged) in sample order, so results are identical for any
	// Workers value. The default (1) keeps the classic per-sample stepping.
	BatchSize int
	// Workers bounds the per-sample gradient goroutines (0 → GOMAXPROCS).
	Workers int
}

func (c TrainConfig) withDefaults() TrainConfig {
	if c.Epochs == 0 {
		c.Epochs = 40
	}
	if c.LR == 0 {
		c.LR = 3e-3
	}
	if c.ValFrac == 0 {
		c.ValFrac = 0.15
	}
	if c.WeightDecay == 0 {
		c.WeightDecay = 1e-4
	}
	if c.Patience == 0 {
		c.Patience = 10
	}
	if c.BatchSize == 0 {
		c.BatchSize = 1
	}
	return c
}

// TrainReport records per-epoch losses.
type TrainReport struct {
	TrainLoss []float64
	ValLoss   []float64
}

// FinalVal returns the last validation loss.
func (r *TrainReport) FinalVal() float64 {
	if len(r.ValLoss) == 0 {
		return math.NaN()
	}
	return r.ValLoss[len(r.ValLoss)-1]
}

// Fit trains the model on samples from a fixed graph (one placement), using
// the L2 loss of Eq. (6) on normalized targets. Training observes ctx at
// every epoch boundary and inside the batch fan-out; a NaN/Inf training or
// validation loss aborts with a typed fault.ErrDiverged rather than letting
// the divergence poison the weights silently.
func (m *Model) Fit(ctx context.Context, g *hetgraph.Graph, samples []Sample, cfg TrainConfig) (*TrainReport, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if len(samples) < 4 {
		return nil, fault.New(fault.StageTraining, fault.ErrInvalidInput,
			"gnn3d: need at least 4 samples, got %d", len(samples))
	}
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))

	// Target normalization. The std is floored at a fraction of the mean so
	// that metrics the routing barely moves (e.g. noise varying in its fourth
	// digit) are not inflated into full-scale targets: fitting their residual
	// would spend capacity on label noise, and the relaxation's FoM would
	// chase it.
	for k := 0; k < NumMetrics; k++ {
		mean, sd := 0.0, 0.0
		for _, s := range samples {
			mean += s.Y[k]
		}
		mean /= float64(len(samples))
		for _, s := range samples {
			d := s.Y[k] - mean
			sd += d * d
		}
		sd = math.Sqrt(sd / float64(len(samples)))
		if floor := 0.02 * math.Abs(mean); sd < floor {
			sd = floor
		}
		if sd < 1e-12 {
			sd = 1
		}
		m.YMean[k] = mean
		m.YStd[k] = sd
	}

	// Shuffled split.
	idx := rng.Perm(len(samples))
	nVal := int(float64(len(samples)) * cfg.ValFrac)
	if nVal < 1 {
		nVal = 1
	}
	val := idx[:nVal]
	train := idx[nVal:]

	targets := make([]*tensor.Tensor, len(samples))
	for i, s := range samples {
		yn := m.Normalize(s.Y)
		targets[i] = tensor.FromSlice(yn[:], 1, NumMetrics)
	}

	params := m.Params()
	opt := optim.NewAdam(params, cfg.LR)
	opt.WeightDecay = cfg.WeightDecay

	// Worker clones for in-batch gradient parallelism: ad.Backward writes
	// into the parameters' Grad tensors, so each concurrent sample needs its
	// own copy of the network. Clones are refreshed from the live weights at
	// every batch and handed out through a channel.
	totalP := 0
	for _, p := range params {
		totalP += p.Value.Len()
	}
	var clones []*Model
	var cloneParams [][]*ad.Var
	var cloneIdx chan int
	if cfg.BatchSize > 1 {
		nc := parallel.Workers(cfg.Workers)
		if nc > cfg.BatchSize {
			nc = cfg.BatchSize
		}
		cloneIdx = make(chan int, nc)
		for i := 0; i < nc; i++ {
			clones = append(clones, m.Clone())
			cloneParams = append(cloneParams, clones[i].Params())
			cloneIdx <- i
		}
	}

	// sampleGrad runs one forward/backward on clone ci and returns the loss
	// and the flattened gradient in Params() order.
	sampleGrad := func(ci, si int) (float64, []float64, error) {
		ad.ZeroGrad(cloneParams[ci]...)
		pred, err := clones[ci].Forward(g, ad.Const(samples[si].C))
		if err != nil {
			return 0, nil, err
		}
		loss := ad.MSE(pred, ad.Const(targets[si]))
		if err := ad.Backward(loss); err != nil {
			return 0, nil, err
		}
		gv := make([]float64, 0, totalP)
		for _, p := range cloneParams[ci] {
			if !p.GradLive() {
				gv = append(gv, make([]float64, p.Value.Len())...)
			} else {
				gv = append(gv, p.Grad.Data...)
			}
		}
		return loss.Value.Data[0], gv, nil
	}

	rep := &TrainReport{}
	bestVal := math.Inf(1)
	sinceBest := 0
	var bestSnap []*tensor.Tensor
	// Per-epoch loss telemetry: the epoch loop is serial, so recording here
	// adds nothing to the batch fan-out and is a no-op without a sink.
	tel := obs.FromContext(ctx)
	for ep := 0; ep < cfg.Epochs; ep++ {
		if err := ctx.Err(); err != nil {
			return nil, fault.FromContext(fault.StageTraining, err)
		}
		// Shuffle the training order each epoch.
		rng.Shuffle(len(train), func(a, b int) { train[a], train[b] = train[b], train[a] })
		sum := 0.0
		for start := 0; start < len(train); start += cfg.BatchSize {
			end := start + cfg.BatchSize
			if end > len(train) {
				end = len(train)
			}
			batch := train[start:end]
			if len(batch) == 1 || cfg.BatchSize == 1 {
				// Per-sample stepping (the legacy path, and batch remainders).
				si := batch[0]
				opt.ZeroGrad()
				pred, err := m.Forward(g, ad.Const(samples[si].C))
				if err != nil {
					return nil, fault.Wrap(fault.StageTraining, fault.ErrModelEval, err, "sample %d", si)
				}
				loss := ad.MSE(pred, ad.Const(targets[si]))
				sum += loss.Value.Data[0]
				if err := ad.Backward(loss); err != nil {
					return nil, fault.Wrap(fault.StageTraining, fault.ErrModelEval, err, "sample %d", si)
				}
				opt.Step()
				continue
			}

			// Parallel per-sample gradients, reduced in sample order.
			for _, c := range clones {
				c.CopyWeightsFrom(m)
			}
			losses := make([]float64, len(batch))
			grads := make([][]float64, len(batch))
			if err := parallel.ForEach(ctx, cfg.Workers, len(batch), func(k int) error {
				ci := <-cloneIdx
				defer func() { cloneIdx <- ci }()
				l, gv, err := sampleGrad(ci, batch[k])
				if err != nil {
					return fault.Wrap(fault.StageTraining, fault.ErrModelEval, err, "sample %d", batch[k])
				}
				losses[k] = l
				grads[k] = gv
				return nil
			}); err != nil {
				return nil, err
			}
			opt.ZeroGrad()
			scale := 1 / float64(len(batch))
			pos := 0
			for _, p := range params {
				buf := p.Grad
				if buf == nil {
					buf = tensor.New(p.Value.Shape...)
				}
				for j := range buf.Data {
					s := 0.0
					for k := range grads {
						s += grads[k][pos+j]
					}
					buf.Data[j] = s * scale
				}
				p.SetGrad(buf)
				pos += p.Value.Len()
			}
			opt.Step()
			for _, l := range losses {
				sum += l
			}
		}
		avg := sum / float64(len(train))
		if math.IsNaN(avg) || math.IsInf(avg, 0) {
			return nil, fault.New(fault.StageTraining, fault.ErrDiverged,
				"gnn3d: training loss %g at epoch %d", avg, ep)
		}
		rep.TrainLoss = append(rep.TrainLoss, avg)

		// Validation forwards never call Backward, so they can share the live
		// model across goroutines (parameter tensors are only read).
		vLosses, err := parallel.Map(ctx, cfg.Workers, len(val), func(k int) (float64, error) {
			pred, err := m.Forward(g, ad.Const(samples[val[k]].C))
			if err != nil {
				return 0, err
			}
			return ad.MSE(pred, ad.Const(targets[val[k]])).Value.Data[0], nil
		})
		if err != nil {
			return nil, err
		}
		vSum := 0.0
		for _, l := range vLosses {
			vSum += l
		}
		vAvg := vSum / float64(len(val))
		if math.IsNaN(vAvg) || math.IsInf(vAvg, 0) {
			return nil, fault.New(fault.StageTraining, fault.ErrDiverged,
				"gnn3d: validation loss %g at epoch %d", vAvg, ep)
		}
		rep.ValLoss = append(rep.ValLoss, vAvg)
		if tel.Enabled() {
			obs.Event(ctx, "gnn3d.epoch", map[string]any{
				"epoch": ep, "train_loss": avg, "val_loss": vAvg,
			})
			tel.Registry().Counter("analogfold_gnn3d_epochs_total").Inc()
		}

		// Early stopping with best-weights restore.
		if vAvg < bestVal {
			bestVal = vAvg
			sinceBest = 0
			bestSnap = bestSnap[:0]
			for _, p := range params {
				bestSnap = append(bestSnap, p.Value.Clone())
			}
		} else if cfg.Patience > 0 {
			sinceBest++
			if sinceBest >= cfg.Patience {
				break
			}
		}
	}
	if bestSnap != nil {
		for i, p := range params {
			copy(p.Value.Data, bestSnap[i].Data)
		}
	}
	return rep, nil
}
