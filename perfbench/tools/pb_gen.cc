// Seeded input generator for the benchmark:
//
//   pb_gen <dir> <entities> <seed>|base
//
// Writes the synthetic world's encyclopedia dump, corpus and lexicon in the
// formats `cnprobase_cli build` reads (dump.tsv, corpus.tsv, lexicon.tsv),
// plus gold.tsv, the generator's ground truth that the benchmark judges the
// built taxonomy against: one row per hyponym, `name <TAB> hypernym...`,
// page names first and then concept names not already listed. A relation
// isA(h, c) is correct exactly when c is on h's row. `base` keeps the
// generators' default seeds: the world cnprobase_ingestd builds its base
// taxonomy from at the same entity count.
#include <cstdio>
#include <cstdlib>
#include <set>
#include <string>
#include <vector>

#include "synth/corpus_gen.h"
#include "synth/encyclopedia_gen.h"
#include "synth/world.h"
#include "text/segmenter.h"
#include "util/tsv.h"

namespace {

using namespace cnpb;

std::vector<std::string> Ancestry(const synth::Ontology& onto,
                                  const std::vector<int>& concepts) {
  std::set<std::string> names;
  for (const int c : concepts) {
    names.insert(onto.ConceptAt(c).name);
    for (const int a : onto.Ancestors(c)) names.insert(onto.ConceptAt(a).name);
  }
  return {names.begin(), names.end()};
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 4) {
    std::fprintf(stderr, "usage: %s <dir> <entities> <seed>|base\n", argv[0]);
    return 2;
  }
  const std::string dir = argv[1];
  synth::WorldModel::Config wc;
  synth::EncyclopediaGenerator::Config ec;
  synth::CorpusGenerator::Config cc;
  wc.num_entities = std::strtoull(argv[2], nullptr, 10);
  if (std::string(argv[3]) != "base") {
    const uint64_t seed = std::strtoull(argv[3], nullptr, 10);
    wc.seed = seed * 3 + 1;
    ec.seed = seed * 3 + 2;
    cc.seed = seed * 3 + 3;
  }
  const synth::WorldModel world = synth::WorldModel::Generate(wc);
  const auto output = synth::EncyclopediaGenerator::Generate(world, ec);
  text::Segmenter segmenter(&world.lexicon());
  const auto corpus =
      synth::CorpusGenerator::Generate(world, output.dump, segmenter, cc);

  if (!output.dump.Save(dir + "/dump.tsv").ok() ||
      !world.lexicon().Save(dir + "/lexicon.tsv").ok()) {
    std::fprintf(stderr, "pb_gen: cannot write dump/lexicon under %s\n",
                 dir.c_str());
    return 1;
  }
  util::TsvWriter corpus_out(dir + "/corpus.tsv");
  for (const auto& sentence : corpus.sentences) {
    std::vector<std::string> words;
    for (const auto& token : sentence) words.push_back(token.word);
    corpus_out.WriteRow(words);
  }

  const synth::Ontology& onto = world.ontology();
  util::TsvWriter gold(dir + "/gold.tsv");
  std::set<std::string> listed;
  const auto& pages = output.dump.pages();
  for (size_t i = 0; i < pages.size(); ++i) {
    const size_t entity = output.page_entity[i];
    std::vector<std::string> row{pages[i].name};
    const std::vector<std::string> hypernyms =
        entity == SIZE_MAX
            ? Ancestry(onto, onto.ConceptAt(onto.Find(pages[i].name)).parents)
            : Ancestry(onto, world.entities()[entity].concepts);
    row.insert(row.end(), hypernyms.begin(), hypernyms.end());
    gold.WriteRow(row);
    listed.insert(pages[i].name);
  }
  for (size_t c = 0; c < onto.size(); ++c) {
    const auto& info = onto.ConceptAt(static_cast<int>(c));
    if (listed.count(info.name) > 0) continue;
    std::vector<std::string> row{info.name};
    const auto hypernyms = Ancestry(onto, info.parents);
    row.insert(row.end(), hypernyms.begin(), hypernyms.end());
    gold.WriteRow(row);
  }
  if (!corpus_out.Close().ok() || !gold.Close().ok()) {
    std::fprintf(stderr, "pb_gen: cannot write corpus/gold under %s\n",
                 dir.c_str());
    return 1;
  }
  std::printf("pages=%zu sentences=%zu\n", pages.size(),
              corpus.sentences.size());
  return 0;
}
