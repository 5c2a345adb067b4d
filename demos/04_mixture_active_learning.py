"""Active learning when the right prior is unknown: mix the candidates.

Instead of committing to one prior, keep a weighted set of them; after
each query, reweight the components by how well they predicted the
observed label and let each run its own Bayes update.  The truth is
drawn from one of the components, yet the mixture stays competitive,
and adaptive querying beats passive selection on the way.
"""

import numpy as np

import poolal as pl

# A 16-example pool and four induced priors, each generated by a sharp
# step predictor whose transition sits at a different offset.
inst, components = pl.grid_task(n_examples=16, n_components=4)
print(f"pool of {inst.n_examples} examples, {inst.n_hypotheses} labelings,")
print(f"{len(components)} mixture components from the offset grid")
print()

# One run, narrated: watch the weights concentrate on the truth's component.
rng = np.random.default_rng(1)
truth = pl.sample_truth(inst, components, rng)
print(f"truth labels: {''.join(truth.labels)}")
state = pl.initial_state(inst, components)
for step in range(8):
    state = pl.mixture_step(state, "max_gibbs", truth.label_of)
    x, y = state.transcript.pairs[-1]
    w = ", ".join(f"{v:.2f}" for v in state.weights)
    print(f"step {step + 1}: queried {x} -> {y}   weights [{w}]")

unqueried = [x for x in inst.examples if x not in state.transcript.examples]
correct = sum(pl.mixture_predict(state, x) == truth.labeling[x] for x in unqueried)
print(f"prediction accuracy on the {len(unqueried)} unqueried examples: "
      f"{correct / len(unqueried):.2f}")
print()

# The aggregate picture: adaptive vs passive over 100 seeded draws.
print("aggregating 100 seeded runs (this takes a few seconds)...")
_, means = pl.mixture_trajectories(
    inst, components, budget=8, n_seeds=100, criterion="max_gibbs",
    with_passive=True, seed=0,
)
print(f"mean final accuracy, adaptive max-Gibbs: {means['al']:.4f}")
print(f"mean final accuracy, passive selection:  {means['passive']:.4f}")
