"""Label-structure property tests for the index methods.

Beyond black-box query correctness: these check the *defining properties*
of each index's labels on random graphs — the 2-hop cover property for
TOL, min-hash exactness for IP, interval necessity for DAGGER, and
landmark/BL soundness for DBL.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.dagger import DaggerMethod
from repro.baselines.dbl import DBLMethod
from repro.baselines.ip import IPMethod
from repro.baselines.tol import TOLMethod
from repro.graph.closure import TransitiveClosure

from tests.conftest import random_graph


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10**5), n=st.integers(2, 18))
def test_property_tol_labels_form_2hop_cover(seed, n):
    """For every reachable component pair, some hop lies in both labels
    (completeness); every hop in a label genuinely certifies reachability
    (soundness)."""
    g = random_graph(n, 3 * n, seed)
    method = TOLMethod(g.copy())
    dag = method.dag.dag
    dag_closure = TransitiveClosure(dag)
    for cs in dag.vertices():
        for ct in dag.vertices():
            covered = bool(method.label_out[cs] & method.label_in[ct]) or (
                cs == ct
            )
            assert covered == dag_closure.is_reachable(cs, ct)
    # Soundness of individual entries.
    for c, hops in method.label_in.items():
        for h in hops:
            assert dag_closure.is_reachable(h, c)
    for c, hops in method.label_out.items():
        for h in hops:
            assert dag_closure.is_reachable(c, h)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10**5))
def test_property_ip_minhash_labels_are_exact_kmins(seed):
    """IP's L_out(c) must equal the k smallest hashes over c's reachable
    component set — the exactness its prune test relies on."""
    g = random_graph(14, 35, seed)
    method = IPMethod(g.copy(), k=2)
    dag = method.dag.dag
    dag_closure = TransitiveClosure(dag)
    for c in dag.vertices():
        reach = {
            w for w in dag.vertices() if dag_closure.is_reachable(c, w)
        }
        expected = tuple(sorted(method._hashes[w] for w in reach)[: method.k])
        assert method.label_out[c] == expected


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10**5))
def test_property_dagger_intervals_are_necessary(seed):
    """Reachability on the DAG implies interval containment in every one
    of DAGGER's independent labelings."""
    g = random_graph(15, 40, seed)
    method = DaggerMethod(g.copy())
    dag = method.dag.dag
    dag_closure = TransitiveClosure(dag)
    for cs in dag.vertices():
        for ct in dag.vertices():
            if dag_closure.is_reachable(cs, ct):
                for label in method.labels:
                    lo_s, hi_s = label[cs]
                    lo_t, hi_t = label[ct]
                    assert lo_s <= lo_t and hi_t <= hi_s


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10**5))
def test_property_dbl_label_soundness(seed):
    """DL entries certify real reachability; BL masks are supersets of the
    true reachable bucket sets (necessity of the subset prune)."""
    g = random_graph(14, 35, seed)
    method = DBLMethod(g.copy(), num_landmarks=4, num_buckets=32)
    closure = TransitiveClosure(g)
    for v in g.vertices():
        for landmark in method.dl_out[v]:
            assert closure.is_reachable(v, landmark)
        for landmark in method.dl_in[v]:
            assert closure.is_reachable(landmark, v)
        true_mask = 0
        for w in (w for w in g.vertices() if closure.is_reachable(v, w)):
            true_mask |= method._bucket(w)
        # BL_out must cover every reachable bucket (else false prunes).
        assert method.bl_out[v] & true_mask == true_mask
