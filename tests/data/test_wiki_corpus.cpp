#include "data/wiki_corpus.hpp"

#include <gtest/gtest.h>

#include <set>

#include "clustering/metrics.hpp"
#include "common/error.hpp"

namespace dasc::data {
namespace {

TEST(WikiCategoryCount, MatchesPaperFitAtTableSizes) {
  // Table 1 / Eq. 15: K = 17 (log2 N - 9). Exact at powers of two.
  EXPECT_EQ(wiki_category_count(1024), 17u);       // 17 * 1
  EXPECT_EQ(wiki_category_count(2048), 34u);       // 17 * 2
  EXPECT_EQ(wiki_category_count(1 << 20), 187u);   // 17 * 11
  EXPECT_EQ(wiki_category_count(1 << 21), 204u);   // 17 * 12
}

TEST(WikiCategoryCount, ClampedForSmallN) {
  EXPECT_EQ(wiki_category_count(2), 1u);
  EXPECT_EQ(wiki_category_count(512), 1u);  // log2 = 9 -> 0, clamped
}

TEST(WikiCategoryCount, MonotonicInN) {
  std::size_t prev = 0;
  for (std::size_t n = 1024; n <= (1 << 18); n *= 2) {
    const std::size_t k = wiki_category_count(n);
    EXPECT_GE(k, prev);
    prev = k;
  }
}

TEST(CategoryTree, ExactLeafCount) {
  Rng rng(1);
  for (std::size_t leaves : {1u, 2u, 7u, 17u, 50u}) {
    const CategoryTree tree = CategoryTree::generate(leaves, rng);
    EXPECT_EQ(tree.leaf_ids.size(), leaves);
    std::set<int> labels;
    for (std::size_t id : tree.leaf_ids) {
      EXPECT_TRUE(tree.nodes[id].is_leaf);
      labels.insert(tree.nodes[id].leaf_label);
    }
    EXPECT_EQ(labels.size(), leaves);  // dense distinct labels
  }
}

TEST(CategoryTree, RootIsNotALeafForMultiLeafTrees) {
  Rng rng(2);
  const CategoryTree tree = CategoryTree::generate(5, rng);
  EXPECT_FALSE(tree.nodes[0].is_leaf);
  EXPECT_FALSE(tree.nodes[0].children.empty());
}

TEST(WikiDocuments, BalancedCategoriesAndMarkup) {
  Rng rng(3);
  WikiCorpusParams params;
  params.n = 60;
  params.k = 3;
  const auto docs = make_wiki_documents(params, rng);
  ASSERT_EQ(docs.size(), 60u);
  std::vector<int> counts(3, 0);
  for (const auto& doc : docs) {
    ASSERT_GE(doc.category, 0);
    ASSERT_LT(doc.category, 3);
    ++counts[static_cast<std::size_t>(doc.category)];
    EXPECT_NE(doc.html.find("<html>"), std::string::npos);
    EXPECT_NE(doc.html.find("topic"), std::string::npos);
  }
  for (int c : counts) EXPECT_EQ(c, 20);
}

TEST(WikiDocuments, FeaturePipelineSeparatesCategories) {
  Rng rng(4);
  WikiCorpusParams params;
  params.n = 90;
  params.k = 3;
  const auto docs = make_wiki_documents(params, rng);
  const PointSet features = wiki_documents_to_features(docs, 11);
  ASSERT_EQ(features.size(), 90u);
  ASSERT_EQ(features.dim(), 11u);
  ASSERT_TRUE(features.has_labels());

  // Nearest-centroid self-consistency: same-category docs should be more
  // similar on tf-idf features than cross-category ones.
  double same = 0.0;
  double cross = 0.0;
  int same_n = 0;
  int cross_n = 0;
  for (std::size_t i = 0; i < 30; ++i) {
    for (std::size_t j = i + 1; j < 30; ++j) {
      double d2 = 0.0;
      for (std::size_t d = 0; d < 11; ++d) {
        const double diff = features.at(i, d) - features.at(j, d);
        d2 += diff * diff;
      }
      if (features.label(i) == features.label(j)) {
        same += d2;
        ++same_n;
      } else {
        cross += d2;
        ++cross_n;
      }
    }
  }
  EXPECT_LT(same / same_n, cross / cross_n);
}

TEST(WikiVectors, ShapeRangeAndAutoCategories) {
  Rng rng(5);
  WikiCorpusParams params;
  params.n = 1024;
  const PointSet points = make_wiki_vectors(params, rng);
  EXPECT_EQ(points.size(), 1024u);
  EXPECT_EQ(points.dim(), 11u);
  ASSERT_TRUE(points.has_labels());
  int max_label = 0;
  for (std::size_t i = 0; i < points.size(); ++i) {
    max_label = std::max(max_label, points.label(i));
    for (double v : points.point(i)) {
      EXPECT_GE(v, 0.0);
      EXPECT_LE(v, 1.0);
    }
  }
  EXPECT_EQ(max_label + 1, 17);  // wiki_category_count(1024)
}

TEST(WikiVectors, SubtopicsSpreadCategoriesIntoModes) {
  // With subtopics, one category occupies several nearby modes; points of
  // the same category but different subtopics sit farther apart than
  // points of the same subtopic, yet the category labels are unchanged.
  dasc::Rng rng(7);
  WikiCorpusParams params;
  params.n = 400;
  params.k = 4;
  params.subtopics = 5;
  params.noise = 0.02;
  params.subtopic_spread = 0.15;
  const PointSet points = make_wiki_vectors(params, rng);
  ASSERT_TRUE(points.has_labels());

  // Points i and i+k*s share (category, subtopic); i and i+k share the
  // category only.
  const std::size_t k = params.k;
  const std::size_t s = params.subtopics;
  double same_subtopic = 0.0;
  double same_category = 0.0;
  int pairs = 0;
  for (std::size_t i = 0; i + k * s < 200; ++i) {
    double d_sub = 0.0;
    double d_cat = 0.0;
    for (std::size_t dim = 0; dim < points.dim(); ++dim) {
      const double a = points.at(i, dim);
      const double sub = a - points.at(i + k * s, dim);
      const double cat = a - points.at(i + k, dim);
      d_sub += sub * sub;
      d_cat += cat * cat;
    }
    same_subtopic += d_sub;
    same_category += d_cat;
    ++pairs;
  }
  EXPECT_LT(same_subtopic / pairs, same_category / pairs);
}

TEST(WikiVectors, SubtopicsPreserveLabelBalance) {
  dasc::Rng rng(8);
  WikiCorpusParams params;
  params.n = 120;
  params.k = 3;
  params.subtopics = 4;
  const PointSet points = make_wiki_vectors(params, rng);
  std::vector<int> counts(3, 0);
  for (std::size_t i = 0; i < points.size(); ++i) {
    ++counts[static_cast<std::size_t>(points.label(i))];
  }
  for (int c : counts) EXPECT_EQ(c, 40);
}

TEST(WikiVectors, RejectsMoreCategoriesThanDocs) {
  Rng rng(6);
  WikiCorpusParams params;
  params.n = 4;
  params.k = 10;
  EXPECT_THROW(make_wiki_vectors(params, rng), dasc::InvalidArgument);
}

}  // namespace
}  // namespace dasc::data
