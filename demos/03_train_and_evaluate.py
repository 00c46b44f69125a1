"""End-to-end benchmark: corpus -> features -> split -> train -> evaluate.

Generates the default 258-video synthetic corpus, holds out a stratified
quarter of each class, cross-validates all five classifiers on the training
portion, and reports test accuracy plus the confusion matrix of the best
model. Also runs one binary screening task (Parkinson vs Normal).
"""

from gaitlab import FeatureTable, featurize_sequence, generate_corpus
from gaitlab.classify import ALGORITHMS
from gaitlab.evaluate import best_report, render_text_table, run_task


def main():
    print("generating 258-video corpus (seed 42)...")
    corpus = generate_corpus(seed=42)
    table = FeatureTable.from_rows([(featurize_sequence(seq), label) for seq, label in corpus])
    print()

    print("multi-class task (5 gait classes):")
    reports, errors = run_task("multi", list(ALGORITHMS), table, folds=5, seed=0)
    assert not errors, errors
    tested = sum(map(sum, reports[0].confusion))
    print(f"  {len(table) - tested} train / {tested} test videos")
    print(render_text_table(reports))
    print()

    best = best_report(reports)
    print(f"confusion matrix of {best.algorithm} (rows true, columns predicted):")
    names = [c.value for c in best.classes]
    width = max(len(n) for n in names)
    print(" " * (width + 2) + "  ".join(f"{n[:4]:>4s}" for n in names))
    for name, row in zip(names, best.confusion):
        print(f"  {name:<{width}s}" + "  ".join(f"{v:4d}" for v in row))
    print()

    print("binary screening task (Parkinson vs Normal):")
    reports, errors = run_task("binary:Parkinson", ["knn", "logreg"], table, folds=5, seed=0)
    assert not errors, errors
    print(render_text_table(reports))


if __name__ == "__main__":
    main()
