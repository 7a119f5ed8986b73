import numpy as np
import pytest

from lmdst import autodiff as ad
from lmdst.context import RESERVED_TOKENS, Vocabulary, build_vocabulary
from lmdst.corpus import SynthConfig, generate_synthetic
from lmdst.embeddings import CompositeEmbedding, VectorFileError, char_ngrams, split_dims


def make_embedding(tokens=("hotel", "east", "cheap"), dim=400):
    store = ad.ParameterStore(3)
    vocab = Vocabulary(list(tokens))
    return CompositeEmbedding(store, vocab, embedding_dim=dim, freeze_word=False), store, vocab


def dense_char_avg(emb):
    """Reference |V| x n-grams matrix A with char part = A @ char, built the
    way the dense table was. The fancy-index ``+=`` adds a repeated n-gram of
    a token once, at weight 1 / (number of n-grams, repeats included)."""
    avg = np.zeros((len(emb.vocab), emb.char.shape[0]))
    for i, token in enumerate(emb.vocab.tokens()):
        if i < len(RESERVED_TOKENS):
            continue
        ids = [emb.ngram_ids[g] for g in char_ngrams(token)]
        avg[i, ids] += 1.0 / len(ids)
    return avg


def test_char_ngrams_of_hotel():
    assert char_ngrams("hotel") == ["^h", "ho", "ot", "te", "el", "l$",
                                    "^ho", "hot", "ote", "tel", "el$"]


def test_split_dims():
    assert split_dims(400) == (300, 100)
    assert split_dims(8) == (6, 2)


def test_embed_dimension_is_400_for_every_token():
    emb, _, vocab = make_embedding()
    table = emb.table()
    assert table.shape == (len(vocab), 400)
    for token in ("hotel", "never-seen"):
        assert ad.embedding_lookup(table, [vocab.id(token)]).shape == (1, 400)


def test_pad_and_reserved_char_part_zero():
    emb, _, _ = make_embedding()
    table = emb.table().value
    for i in range(len(RESERVED_TOKENS)):
        assert (table[i, emb.word_dim:] == 0).all()


def test_zero_char_rows_give_zero_char_half():
    emb, _, vocab = make_embedding()
    emb.char.value = np.zeros_like(emb.char.value)
    vec = ad.embedding_lookup(emb.table(), [vocab.id("hotel")]).value[0]
    assert (vec[emb.word_dim:] == 0).all()
    assert (vec[:emb.word_dim] == emb.word.value[vocab.id("hotel")]).all()


def test_char_part_is_hand_computed_ngram_mean():
    emb, _, vocab = make_embedding()
    grams = char_ngrams("hotel")
    rows = np.array([emb.char.value[emb.ngram_ids[g]] for g in grams])
    expected = rows.mean(axis=0)
    got = ad.embedding_lookup(emb.table(), [vocab.id("hotel")]).value[0, emb.word_dim:]
    np.testing.assert_allclose(got, expected, rtol=0, atol=1e-12)


@pytest.mark.parametrize("corpus", ["hand", "synth"])
def test_sparse_table_matches_dense_reference(corpus):
    if corpus == "hand":
        # "aaa" repeats the n-gram "aa"; "hotel"/"hostel"/"hot" share n-grams
        tokens = ["aaa", "hotel", "hostel", "hot", "a"]
    else:
        tokens = build_vocabulary(generate_synthetic(SynthConfig())[0]).content_tokens()
    emb, store, vocab = make_embedding(tokens=tokens, dim=8)
    avg = dense_char_avg(emb)
    if corpus == "hand":
        assert avg[vocab.id("aaa")].sum() == pytest.approx(6 / 7)  # 7 n-grams, "aa" once
        assert (avg[:len(RESERVED_TOKENS)] == 0).all()
    upstream = np.random.default_rng(12).normal(size=(len(vocab), emb.embedding_dim))

    table = emb.table()
    np.testing.assert_allclose(table.value[:, emb.word_dim:], avg @ emb.char.value,
                               rtol=0, atol=1e-12)
    store.zero_grad()
    ad.backward(ad.sum_all(ad.elementwise_mul(table, ad.Node(upstream))))
    np.testing.assert_allclose(emb.char.grad, avg.T @ upstream[:, emb.word_dim:],
                               rtol=0, atol=1e-12)


def test_table_follows_default_dtype():
    try:
        ad.set_default_dtype("float32")
        emb, _, _ = make_embedding(dim=8)
        assert emb.table().value.dtype == np.dtype("float32")
    finally:
        ad.set_default_dtype("float64")


def test_unk_fallback():
    emb, _, vocab = make_embedding()
    table = emb.table()
    unk = ad.embedding_lookup(table, [vocab.id("<unk>")]).value
    novel = ad.embedding_lookup(table, [vocab.id("totally-novel")]).value
    np.testing.assert_array_equal(novel, unk)


def test_load_pretrained_empty_file(tmp_path):
    emb, _, _ = make_embedding(dim=8)
    before = emb.word.value.copy()
    p = tmp_path / "vec.txt"
    p.write_text("")
    assert emb.load_pretrained_vectors(p) == 0.0
    np.testing.assert_array_equal(emb.word.value, before)


def test_load_pretrained_full_coverage(tmp_path):
    emb, _, _ = make_embedding(tokens=("aa", "bb"), dim=8)
    p = tmp_path / "vec.txt"
    lines = [" ".join(["aa"] + ["0.5"] * emb.word_dim),
             " ".join(["bb"] + ["-1.25"] * emb.word_dim)]
    p.write_text("\n".join(lines) + "\n")
    assert emb.load_pretrained_vectors(p) == 1.0


def test_load_pretrained_known_row_bit_exact(tmp_path):
    emb, _, vocab = make_embedding(tokens=("hotel", "east"), dim=8)
    values = [0.125, -0.75, 3.0, 0.0625, -2.5, 1.0]
    assert len(values) == emb.word_dim
    p = tmp_path / "vec.txt"
    p.write_text("hotel " + " ".join(str(v) for v in values) + "\n")
    coverage = emb.load_pretrained_vectors(p)
    assert coverage == pytest.approx(0.5)
    assert (emb.word.value[vocab.id("hotel")] == np.array(values)).all()


def test_load_pretrained_wrong_dim_names_line(tmp_path):
    emb, _, _ = make_embedding(tokens=("hotel",), dim=8)
    p = tmp_path / "vec.txt"
    p.write_text("hotel 1.0 2.0\n")
    with pytest.raises(VectorFileError) as exc:
        emb.load_pretrained_vectors(p)
    assert "line 1" in str(exc.value)


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
def test_load_pretrained_non_finite_value_names_line(tmp_path, bad):
    """A NaN or infinite value would reach training as a word row and fail
    only at the first backward; it is a file error naming its line."""
    emb, _, vocab = make_embedding(tokens=("hotel", "east"), dim=8)
    before = emb.word.value.copy()
    p = tmp_path / "vec.txt"
    p.write_text("east 1 2 3 4 5 6\nhotel " + bad + " 1 2 3 4 5\n")
    with pytest.raises(VectorFileError, match="line 2: non-finite value for 'hotel'"):
        emb.load_pretrained_vectors(p)
    np.testing.assert_array_equal(emb.word.value[vocab.id("hotel")],
                                  before[vocab.id("hotel")])


def test_gradient_flows_into_both_parts():
    emb, store, vocab = make_embedding(tokens=("hotel", "east"), dim=8)
    ids = [vocab.id("hotel"), vocab.id("east"), vocab.id("hotel")]

    def loss():
        e = ad.embedding_lookup(emb.table(), ids)
        return ad.sum_all(ad.elementwise_mul(e, e))

    err = ad.grad_check(loss, [emb.word, emb.char], eps=1e-5)
    assert err < 1e-4
    store.zero_grad()
    ad.backward(loss())
    assert np.abs(emb.word.grad).sum() > 0
    assert np.abs(emb.char.grad).sum() > 0
    # repeated token rows accumulate: hotel row got two contributions
    hotel_row = np.abs(emb.word.grad[vocab.id("hotel")]).sum()
    east_row = np.abs(emb.word.grad[vocab.id("east")]).sum()
    assert hotel_row > east_row


def test_freeze_word_blocks_word_gradient():
    store = ad.ParameterStore(3)
    vocab = Vocabulary(["hotel"])
    emb = CompositeEmbedding(store, vocab, embedding_dim=8, freeze_word=True)
    t = emb.table()
    ad.backward(ad.sum_all(ad.elementwise_mul(t, t)))
    assert emb.word.grad is None
    assert np.abs(emb.char.grad).sum() > 0
