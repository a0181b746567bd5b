"""Wrap the public functions ``repro.core.zeroed`` and the workloads call
into each layer, so that a traced iteration records one span per call.

Nothing under ``src/`` is edited: the wrappers replace module and class
attributes for the duration of :func:`instrumented` and put the originals
back afterwards, so untraced iterations run the program untouched.

Layers are this repository's modules; the span names are the layer names
the per-layer metrics use.
"""
from __future__ import annotations

import functools
import importlib
from contextlib import contextmanager

import repro.core.zeroed as zeroed
import repro.training.classifier as classifier
from repro.llm.model import SimulatedLLM

from metrics import BASELINES
from spans import Tracer

_INHERITED = object()


def _stats_counts(stats, args, kwargs):
    keys = sum(len(v) for v in stats.value_counts.values())
    keys += sum(len(v) for v in stats.joint.values())
    return {"calls": 1, "pair_keys": keys}


def _featurize_counts(result, args, kwargs):
    row_ids, mats = result
    return {"calls": 1, "cells": len(row_ids) * len(mats)}


def _sampling_counts(clustering, args, kwargs):
    method = args[0] if args else kwargs["method"]
    return {"fits": int(method == "kmeans"), "clusters": len(clustering.representatives)}


def _construct_counts(td, args, kwargs):
    return {
        "pool_rows": len(td.real_positions),
        "synth_rows": len(td.synth_rows),
        "evicted": td.n_evicted,
    }


def _mlp_counts(mask, args, kwargs):
    # fits are counted by the wrapped MultilayerPerceptronClassifier.fit;
    # the attributes it did not fit became constant predictors
    training = args[2] if len(args) > 2 else kwargs["training"]
    return {"attrs": len(training)}


def _label_counts(tracer: Tracer):
    def counts(labels, args, kwargs):
        attr = args[2] if len(args) > 2 else kwargs["attr"]
        out = {"cells_labeled": len(labels)}
        if tracer.truth is not None:
            truth = tracer.truth[attr]
            out["labels_correct"] = sum(
                int(bool(truth.iat[pos]) == bool(lab)) for pos, lab in labels.items()
            )
        return out

    return counts


def _traced_complete(tracer: Tracer, orig):
    """``SimulatedLLM.complete`` with a span and token deltas by purpose.
    The simulated LLM launches no Spark jobs, so its spans take no job
    group (FM_ED makes one call per tuple)."""

    def complete(self, prompt, responder, purpose):
        p0, c0 = self.usage.prompt_tokens, self.usage.completion_tokens
        with tracer.span("llm", spark=False) as sp:
            out = orig(self, prompt, responder, purpose)
            dp = self.usage.prompt_tokens - p0
            dc = self.usage.completion_tokens - c0
            sp.counts.update({
                "calls": 1, "prompt_tokens": dp, "completion_tokens": dc,
                f"tokens.{purpose}": dp + dc,
            })
        return out

    return complete


def _targets(tracer: Tracer):
    """(owner, attribute, span name, counts) for every wrapped function."""
    runner = zeroed.ZeroEDRunner
    out = [
        (runner, "__init__", "core.runner_init", None),
        (runner, "run", "core.run", lambda r, a, k: {"runs": 1}),
        (zeroed, "collect_stats", "features.stats", _stats_counts),
        (zeroed, "top_related", "features.correlation", None),
        (zeroed, "build_context", "features.featurize", None),
        (zeroed, "features_sdf", "features.featurize", None),
        (zeroed, "collect_feature_matrices", "features.featurize", _featurize_counts),
        (zeroed, "cluster_attribute", "sampling", _sampling_counts),
        (zeroed, "make_guidelines", "labeling.guidelines", None),
        (zeroed, "label_representatives", "labeling.label", _label_counts(tracer)),
        (zeroed, "construct_training_data", "training.construct", _construct_counts),
        (zeroed, "train_predict_all", "training.mlp", _mlp_counts),
    ]
    out += [
        (importlib.import_module(f"repro.baselines.{b}"), "detect", f"baselines.{b}", None)
        for b in BASELINES
    ]
    return out


def _counted(tracer: Tracer, fn, key: str):
    """``fn`` adding one to ``key`` of the innermost open span per call."""

    @functools.wraps(fn)
    def counted(*args, **kwargs):
        tracer.count(key)
        return fn(*args, **kwargs)

    return counted


@contextmanager
def instrumented(tracer: Tracer):
    """Install the wrappers; restore the original attributes on exit."""
    saved = []

    def install(owner, attr, wrapper):
        # an inherited method (the MLP's fit) is not in the owner's
        # __dict__; deleting the override restores it
        saved.append((owner, attr, vars(owner).get(attr, _INHERITED)))
        setattr(owner, attr, wrapper(getattr(owner, attr)))

    try:
        for owner, attr, name, counts in _targets(tracer):
            install(owner, attr, lambda fn: tracer.wrap(fn, name, counts))
        install(SimulatedLLM, "complete", lambda fn: _traced_complete(tracer, fn))
        mlp = classifier.MultilayerPerceptronClassifier
        install(mlp, "fit", lambda fn: _counted(tracer, fn, "fits"))
        yield tracer
    finally:
        for owner, attr, fn in reversed(saved):
            if fn is _INHERITED:
                delattr(owner, attr)
            else:
                setattr(owner, attr, fn)
