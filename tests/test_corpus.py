import numpy as np
import pytest

from prosodiff.corpus import (
    CorpusConfig,
    NormStats,
    compute_stats,
    default_archetypes,
    generate_corpus,
    load_corpus,
    read_utterance_csv,
    save_corpus,
    write_utterance_csv,
)


def small_config(**overrides) -> CorpusConfig:
    defaults = dict(style_count=4, utterances_per_style=20, length_range=(6, 12), vocab_size=40)
    defaults.update(overrides)
    return CorpusConfig(**defaults)


class TestGeneration:
    def test_same_seed_identical(self):
        a = generate_corpus(small_config(), seed=11)
        b = generate_corpus(small_config(), seed=11)
        assert len(a.utterances) == len(b.utterances)
        for ua, ub in zip(a.utterances, b.utterances):
            assert np.array_equal(ua.phoneme_ids, ub.phoneme_ids)
            assert np.array_equal(ua.prosody, ub.prosody)
        assert a.train_indices == b.train_indices

    def test_different_seed_differs(self):
        a = generate_corpus(small_config(), seed=11)
        b = generate_corpus(small_config(), seed=12)
        assert not np.array_equal(a.utterances[0].prosody, b.utterances[0].prosody)

    def test_fixed_length_range(self):
        corpus = generate_corpus(small_config(length_range=(4, 4)), seed=3)
        assert all(u.length == 4 for u in corpus.utterances)

    def test_per_style_mean_pitch_tracks_base_gap(self):
        # two widely separated pitch bases: sample means reflect the gap
        corpus = generate_corpus(small_config(style_count=2, utterances_per_style=500), seed=5)
        arch = default_archetypes(corpus.config.style_count)
        means = []
        for style in (0, 1):
            pooled = np.concatenate(
                [u.prosody[0] for u in corpus.utterances if u.style_id == style]
            )
            means.append(pooled.mean())
        observed_gap = means[1] - means[0]
        expected_gap = arch[1].pitch_base - arch[0].pitch_base
        assert abs(observed_gap - expected_gap) < 0.05

    def test_counts_per_style(self):
        corpus = generate_corpus(small_config(), seed=2)
        for style in range(4):
            assert sum(u.style_id == style for u in corpus.utterances) == 20

    def test_split_disjoint_and_stable(self):
        corpus = generate_corpus(small_config(), seed=9)
        train, val = set(corpus.train_indices), set(corpus.val_indices)
        assert train.isdisjoint(val)
        assert train | val == set(range(len(corpus.utterances)))
        again = generate_corpus(small_config(), seed=9)
        assert corpus.val_indices == again.val_indices

    def test_archetype_separation_margins(self):
        corpus = generate_corpus(small_config(utterances_per_style=100), seed=4)
        k = corpus.config.style_count
        means = np.zeros((k, 3))
        stds = np.zeros((k, 3))
        for s in range(k):
            pooled = np.concatenate(
                [u.prosody for u in corpus.utterances if u.style_id == s], axis=1
            )
            means[s] = pooled.mean(axis=1)
            stds[s] = pooled.std(axis=1)
        margin = corpus.config.separation_margin
        for a in range(k):
            for b in range(a + 1, k):
                gap = np.abs(means[a] - means[b])
                assert np.any(gap >= margin * np.maximum(stds[a], stds[b]))

    def test_invalid_configs_rejected(self):
        with pytest.raises(ValueError):
            CorpusConfig(style_count=1)
        with pytest.raises(ValueError):
            CorpusConfig(length_range=(5, 3))
        with pytest.raises(ValueError):
            CorpusConfig(vocab_size=2, style_count=4)

    def test_default_archetypes_distinct(self):
        styles = default_archetypes(4)
        bases = [s.pitch_base for s in styles]
        assert len(set(bases)) == 4


class TestNormalization:
    def test_round_trip_identity(self):
        corpus = generate_corpus(small_config(), seed=1)
        stats = corpus.stats
        for u in corpus.utterances[:10]:
            back = stats.denormalize(stats.normalize(u.prosody))
            np.testing.assert_allclose(back, u.prosody, atol=1e-12)

    def test_train_split_standardized(self):
        corpus = generate_corpus(small_config(utterances_per_style=100), seed=1)
        pooled = np.concatenate(
            [corpus.stats.normalize(corpus.utterances[i].prosody) for i in corpus.train_indices],
            axis=1,
        )
        assert np.all(np.abs(pooled.mean(axis=1)) < 1e-9)
        np.testing.assert_allclose(pooled.std(axis=1), 1.0, atol=1e-9)

    def test_zero_variance_channel_rejected(self):
        corpus = generate_corpus(small_config(), seed=1)
        u = corpus.utterances[0]
        u2 = type(u)(
            phoneme_ids=u.phoneme_ids, prosody=np.zeros_like(u.prosody), style_id=u.style_id
        )
        with pytest.raises(ValueError, match="zero variance"):
            compute_stats([u2])


class TestPersistence:
    def test_round_trip_bitwise(self, tmp_path):
        corpus = generate_corpus(small_config(), seed=6)
        save_corpus(corpus, tmp_path / "c")
        loaded = load_corpus(tmp_path / "c")
        assert loaded.config == corpus.config
        assert loaded.train_indices == corpus.train_indices
        for a, b in zip(corpus.utterances, loaded.utterances):
            assert np.array_equal(a.phoneme_ids, b.phoneme_ids)
            assert np.array_equal(a.prosody, b.prosody)  # repr round-trip is exact
            assert a.style_id == b.style_id

    def test_save_twice_identical_bytes(self, tmp_path):
        corpus = generate_corpus(small_config(), seed=6)
        save_corpus(corpus, tmp_path / "a")
        save_corpus(corpus, tmp_path / "b")
        for name in ("manifest.json", "utt_00000.csv", "utt_00037.csv"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_stats_travel_with_manifest(self, tmp_path):
        corpus = generate_corpus(small_config(), seed=6)
        save_corpus(corpus, tmp_path / "c")
        loaded = load_corpus(tmp_path / "c")
        assert np.array_equal(loaded.stats.mean, corpus.stats.mean)
        assert np.array_equal(loaded.stats.std, corpus.stats.std)
        x = corpus.utterances[3].prosody
        assert np.array_equal(loaded.stats.normalize(x), corpus.stats.normalize(x))

    def test_utterance_csv_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        ids = rng.integers(0, 40, size=7)
        prosody = rng.standard_normal((3, 7))
        path = tmp_path / "utt.csv"
        write_utterance_csv(path, ids, prosody)
        ids2, prosody2 = read_utterance_csv(path)
        assert np.array_equal(ids, ids2)
        assert np.array_equal(prosody, prosody2)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_value_rejected(self, tmp_path, bad):
        prosody = np.ones((3, 4))
        prosody[2, 1] = bad
        write_utterance_csv(tmp_path / "utt.csv", np.arange(4), prosody)
        with pytest.raises(ValueError, match="non-finite"):
            read_utterance_csv(tmp_path / "utt.csv")

    def test_non_finite_corpus_file_rejected(self, tmp_path):
        corpus = generate_corpus(small_config(), seed=6)
        save_corpus(corpus, tmp_path / "c")
        path = tmp_path / "c" / "utt_00005.csv"
        lines = path.read_text().splitlines()
        fields = lines[2].split(",")
        fields[1] = "nan"
        lines[2] = ",".join(fields)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="utt_00005.csv: non-finite"):
            load_corpus(tmp_path / "c")

    def test_short_row_rejected(self, tmp_path):
        path = tmp_path / "utt.csv"
        for row in ("3,1.0", "3,1.0,2.0,3.0,999,junk"):  # every row exactly as wide as the header
            path.write_text(f"phoneme_id,log_pitch,energy,log_duration\n{row}\n")
            with pytest.raises(ValueError, match="utt.csv: malformed utterance row"):
                read_utterance_csv(path)

    def test_header_only_file_rejected(self, tmp_path):
        path = tmp_path / "utt.csv"
        path.write_text("phoneme_id,log_pitch,energy,log_duration\n")
        with pytest.raises(ValueError, match="utt.csv: no utterance rows"):
            read_utterance_csv(path)

    @pytest.mark.parametrize("keep_rows", [0, 3])
    def test_val_file_shorter_than_manifest_length_rejected(self, tmp_path, keep_rows):
        # the manifest compares lengths before the val split's statistics, so the message names the file
        corpus = generate_corpus(small_config(), seed=6)
        save_corpus(corpus, tmp_path / "c")
        name = f"utt_{corpus.val_indices[0]:05d}.csv"
        path = tmp_path / "c" / name
        path.write_text("\n".join(path.read_text().splitlines()[: 1 + keep_rows]) + "\n")
        with pytest.raises(ValueError, match=name):
            load_corpus(tmp_path / "c")

    @pytest.mark.parametrize("style_id", [4, -1, "1", 1.0, True, None])
    def test_style_id_outside_style_range_rejected(self, tmp_path, style_id):
        import json

        corpus = generate_corpus(small_config(), seed=6)
        save_corpus(corpus, tmp_path / "c")
        manifest_path = tmp_path / "c" / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["utterances"][corpus.val_indices[0]]["style_id"] = style_id
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(ValueError, match="style_id"):
            load_corpus(tmp_path / "c")

    def test_tampered_stats_detected(self, tmp_path):
        import json

        corpus = generate_corpus(small_config(), seed=6)
        save_corpus(corpus, tmp_path / "c")
        manifest_path = tmp_path / "c" / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["stats"]["mean"][0] += 1.0
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(ValueError, match="statistics disagree"):
            load_corpus(tmp_path / "c")

    @pytest.mark.parametrize("split", ["train", "val"])
    def test_edited_prosody_value_detected(self, tmp_path, split):
        corpus = generate_corpus(small_config(), seed=6)
        save_corpus(corpus, tmp_path / "c")
        index = (corpus.train_indices if split == "train" else corpus.val_indices)[0]
        path = tmp_path / "c" / f"utt_{index:05d}.csv"
        ids, prosody = read_utterance_csv(path)
        prosody[1, 0] = 999.0  # the first energy value
        write_utterance_csv(path, ids, prosody)
        with pytest.raises(ValueError, match="stored statistics disagree with utterance files"):
            load_corpus(tmp_path / "c")

    def test_out_of_vocabulary_phoneme_id_rejected(self, tmp_path):
        # phoneme ids do not enter the stored statistics, so only the vocabulary check can catch one
        corpus = generate_corpus(small_config(), seed=6)
        save_corpus(corpus, tmp_path / "c")
        name = f"utt_{corpus.train_indices[0]:05d}.csv"
        path = tmp_path / "c" / name
        lines = path.read_text().splitlines()
        lines[1] = "99," + lines[1].split(",", 1)[1]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=f"{name}: phoneme id outside 0..39"):
            load_corpus(tmp_path / "c")

    def test_negative_manifest_seed_rejected_by_name(self, tmp_path):
        import json

        save_corpus(generate_corpus(small_config(), seed=6), tmp_path / "c")
        manifest_path = tmp_path / "c" / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["seed"] = -1
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(ValueError, match=r"c: seed must be >= 0$"):
            load_corpus(tmp_path / "c")

    def test_manifest_round_trips_byte_for_byte(self, tmp_path):
        import json

        corpus = generate_corpus(small_config(), seed=6)
        save_corpus(corpus, tmp_path / "a")
        save_corpus(load_corpus(tmp_path / "a"), tmp_path / "b")
        written = (tmp_path / "a" / "manifest.json").read_bytes()
        assert (tmp_path / "b" / "manifest.json").read_bytes() == written
        manifest = json.loads(written)
        assert list(manifest) == ["config", "seed", "archetypes", "train_indices", "val_indices", "stats", "utterances", "val_stats"]
        assert manifest["config"]["length_range"] == [6, 12]
        assert manifest["utterances"][37] == {"file": "utt_00037.csv", "style_id": 1, "length": corpus.utterances[37].length}
        for i in (0, 37, 79):
            name = f"utt_{i:05d}.csv"
            assert (tmp_path / "b" / name).read_bytes() == (tmp_path / "a" / name).read_bytes()
