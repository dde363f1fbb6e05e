"""Domain example: multi-hop reasoning over a hand-built movie knowledge graph.

The paper motivates MMKGR with a movie example: the missing fact
(Titanic, starred_by, Leonardo DiCaprio) can be inferred by composing
(Titanic, hero, Jack Dawson), (Jack Dawson, played_by, Leonardo DiCaprio).
This script builds exactly that kind of MKG by hand — structural triples plus
synthetic image/text features per entity — trains MMKGR on it, and asks the
agent the paper's motivating queries.

Run with::

    python examples/movie_kg_reasoning.py
"""

from __future__ import annotations

import numpy as np

from repro import MMKGRPipeline, fast_preset
from repro.features.image import SyntheticImageEncoder
from repro.features.text import TextFeatureEncoder, describe_entity
from repro.kg.datasets import MKGDataset, SyntheticMKGConfig
from repro.kg.graph import KnowledgeGraph
from repro.kg.multimodal import EntityModalities, MultiModalKnowledgeGraph
from repro.kg.splits import split_triples

MOVIE_FACTS = [
    # films and the people around them: hero/heroine -> played_by chains give
    # multi-hop evidence for starred_by facts.
    ("titanic", "hero", "jack_dawson"),
    ("titanic", "heroine", "rose_bukater"),
    ("jack_dawson", "played_by", "leonardo_dicaprio"),
    ("rose_bukater", "played_by", "kate_winslet"),
    ("titanic", "directed_by", "james_cameron"),
    ("titanic", "starred_by", "leonardo_dicaprio"),
    ("titanic", "starred_by", "kate_winslet"),
    ("avatar", "hero", "jake_sully"),
    ("avatar", "heroine", "neytiri"),
    ("jake_sully", "played_by", "sam_worthington"),
    ("neytiri", "played_by", "zoe_saldana"),
    ("avatar", "directed_by", "james_cameron"),
    ("avatar", "starred_by", "sam_worthington"),
    ("avatar", "starred_by", "zoe_saldana"),
    ("inception", "hero", "dom_cobb"),
    ("dom_cobb", "played_by", "leonardo_dicaprio"),
    ("inception", "directed_by", "christopher_nolan"),
    ("inception", "starred_by", "leonardo_dicaprio"),
    ("the_revenant", "hero", "hugh_glass"),
    ("hugh_glass", "played_by", "leonardo_dicaprio"),
    ("the_revenant", "starred_by", "leonardo_dicaprio"),
    ("the_revenant", "directed_by", "alejandro_inarritu"),
    ("leonardo_dicaprio", "born_in", "los_angeles"),
    ("kate_winslet", "born_in", "reading"),
    ("james_cameron", "born_in", "kapuskasing"),
    ("titanic", "genre", "romance"),
    ("avatar", "genre", "science_fiction"),
    ("inception", "genre", "science_fiction"),
    ("the_revenant", "genre", "western"),
]

QUERIES = [
    ("titanic", "starred_by", "kate_winslet"),
    ("avatar", "starred_by", "zoe_saldana"),
    ("inception", "starred_by", "leonardo_dicaprio"),
]


def build_movie_dataset() -> MKGDataset:
    """Assemble a MultiModalKnowledgeGraph + splits for the movie domain."""
    graph = KnowledgeGraph()
    for head, relation, tail in MOVIE_FACTS:
        graph.add_triple_by_name(head, relation, tail)

    rng = np.random.default_rng(3)
    latent_dim, image_dim, text_dim = 8, 16, 12
    latents = rng.normal(size=(graph.num_entities, latent_dim))
    image_encoder = SyntheticImageEncoder(latent_dim, image_dim, informativeness=0.9,
                                          irrelevant_dim=4, rng=rng)
    names = graph.entities.symbols()
    descriptions = [
        describe_entity(names[e], e % 4, [names[n] for n in sorted(graph.neighbors(e))[:3]])
        for e in range(graph.num_entities)
    ]
    text_encoder = TextFeatureEncoder(feature_dim=text_dim, rng=rng)
    text_features = text_encoder.fit_transform(descriptions, latents=latents, informativeness=0.7)

    mkg = MultiModalKnowledgeGraph(graph, image_dim=image_dim, text_dim=text_dim, name="movies")
    for entity in range(graph.num_entities):
        mkg.attach_modalities(
            entity,
            EntityModalities(
                image=image_encoder.encode(entity, latents[entity]),
                text=text_features[entity],
                description=descriptions[entity],
            ),
        )

    # Hold out the motivating queries as the test set; train on everything else.
    test = [
        t for t in graph.triples()
        if (names[t.head], graph.relations.symbol(t.relation), names[t.tail]) in QUERIES
    ]
    train = [t for t in graph.triples() if t not in test]
    splits = split_triples(graph, valid_fraction=0.0, test_fraction=0.0, rng=0)
    splits.train, splits.valid, splits.test = train, [], test
    splits.train_graph = graph.subgraph(train)

    config = SyntheticMKGConfig(
        name="movies", num_entities=graph.num_entities, num_base_relations=7,
        num_composed_relations=0, avg_degree=2.0, latent_dim=latent_dim,
        image_dim=image_dim, text_dim=text_dim,
    )
    return MKGDataset(config=config, mkg=mkg, splits=splits, entity_latents=latents)


def main() -> None:
    dataset = build_movie_dataset()
    print(
        f"Movie MKG: {dataset.graph.num_entities} entities, "
        f"{len(dataset.splits.train)} training facts, "
        f"{len(dataset.splits.test)} held-out 'starred_by' queries\n"
    )

    preset = fast_preset()
    preset.imitation.epochs = 25  # tiny graph: imitation converges in seconds
    preset.reinforce.epochs = 5
    pipeline = MMKGRPipeline(dataset, preset=preset)
    pipeline.train()

    reasoner = pipeline.reasoner(beam_width=8)
    graph = dataset.graph
    names = graph.entities.symbols()
    print("Held-out queries and the agent's answers (filtered protocol:\n"
          "answers already known from training are skipped in the ranking):\n")
    for triple in dataset.splits.test:
        predictions = reasoner.query(triple.head, triple.relation, k=8)
        known = dataset.splits.train_graph.tails_for(triple.head, triple.relation)
        ranked = [
            p for p in predictions if p.entity not in known and p.entity != triple.head
        ]
        best = ranked[0] if ranked else (predictions[0] if predictions else None)
        answer = best.entity_name if best is not None else "(no candidate)"
        verdict = (
            "correct"
            if best is not None and best.entity == triple.tail
            else f"expected {names[triple.tail]}"
        )
        print(
            f"  ({names[triple.head]}, {graph.relations.symbol(triple.relation)}, ?) "
            f"-> {answer}  [{verdict}]"
        )
        if best is not None:
            print(f"      path: {names[triple.head]} -> {best.render_path()}")
    print("\nDone.")


if __name__ == "__main__":
    main()
