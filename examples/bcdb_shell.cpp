// bcdb_shell: an interactive denial-constraint console over a synthetic
// Bitcoin blockchain database.
//
// Generates a small chain + mempool, then reads queries from stdin:
//
//   q() :- TxOut(t, s, 'RichPk', a)          -> DCSat verdict
//   q(pk) :- TxOut(t, s, pk, a)              -> certain & possible answers
//   [q(sum(a)) :- TxOut(t, s, 'RichPk', a)] >= 100000000
//   \stats        database statistics        \algo naive|opt|exhaustive|auto
//   \landmarks    interesting constants      \prob <p>  violation probability
//   \help         this text                  \quit
//
// Run interactively:  ./build/examples/bcdb_shell
// Or piped:           echo "q() :- TxOut(t, s, 'RichPk', a)" | bcdb_shell

#include <cstdio>
#include <iostream>
#include <sstream>
#include <string>

#include "bitcoin/generator.h"
#include "bitcoin/to_relational.h"
#include "core/answers.h"
#include "core/dcsat.h"
#include "core/probability.h"
#include "query/parser.h"
#include "util/strings.h"

using namespace bcdb;

namespace {

void PrintHelp() {
  std::printf(
      "Enter a denial constraint (datalog-ish syntax), e.g.\n"
      "  q() :- TxOut(t, s, 'RichPk', a)\n"
      "  q() :- TxIn(pt, ps, 'StarPk', a, n, g)\n"
      "  [q(sum(a)) :- TxOut(t, s, 'RichPk', a)] >= 100000000\n"
      "  q(pk, a) :- TxOut(t, s, pk, a), a > 4000000000   (answers mode)\n"
      "Commands: \\stats  \\landmarks  \\algo <naive|opt|exhaustive|auto>\n"
      "          \\prob <p>   (Monte-Carlo violation probability)\n"
      "          \\help  \\quit\n");
}

}  // namespace

int main() {
  bitcoin::GeneratorParams params;
  params.seed = 7;
  params.num_blocks = 120;
  params.num_users = 24;
  params.num_pending = 80;
  params.num_contradictions = 8;
  std::fprintf(stderr, "generating synthetic chain (seed %llu)...\n",
               static_cast<unsigned long long>(params.seed));
  auto workload = bitcoin::GenerateWorkload(params);
  if (!workload.ok()) {
    std::fprintf(stderr, "generation failed: %s\n",
                 workload.status().ToString().c_str());
    return 1;
  }
  auto db = bitcoin::BuildBlockchainDatabase(workload->node);
  if (!db.ok()) {
    std::fprintf(stderr, "load failed: %s\n", db.status().ToString().c_str());
    return 1;
  }
  DcSatEngine engine(&*db);
  DcSatOptions options;
  const bitcoin::WorkloadMetadata& meta = workload->metadata;

  std::printf("bcdb shell — blockchain database over %zu chain txs, %zu "
              "pending. \\help for help.\n",
              workload->node.chain().Stats().transactions,
              db->num_pending());

  bool prob_mode = false;
  double prob_mode_p = 0.5;
  std::string line;
  while (true) {
    std::printf("bcdb> ");
    std::fflush(stdout);
    if (!std::getline(std::cin, line)) break;
    const std::string trimmed{TrimWhitespace(line)};
    if (trimmed.empty()) continue;

    if (trimmed[0] == '\\') {
      std::istringstream command(trimmed.substr(1));
      std::string verb;
      command >> verb;
      if (verb == "quit" || verb == "q" || verb == "exit") break;
      if (verb == "help") {
        PrintHelp();
      } else if (verb == "stats") {
        const bitcoin::ChainStats chain = workload->node.chain().Stats();
        const bitcoin::ChainStats pool = workload->node.mempool().Stats();
        std::printf("R: %zu blocks, %zu txs, %zu inputs, %zu outputs\n",
                    chain.blocks, chain.transactions, chain.inputs,
                    chain.outputs);
        std::printf("T: %zu txs, %zu inputs, %zu outputs, %zu conflicts\n",
                    pool.transactions, pool.inputs, pool.outputs,
                    workload->node.mempool().ConflictPairs().size());
      } else if (verb == "landmarks") {
        std::printf("chain head: '%s' (pending path to '%s')\n",
                    meta.chain_pks.front().c_str(),
                    meta.chain_pks.back().c_str());
        std::printf("star spender: '%s'  rich receiver: '%s'\n",
                    meta.star_pk.c_str(), meta.rich_pk.c_str());
        std::printf("quiet (confirmed, no pending activity): '%s'\n",
                    meta.quiet_pk.c_str());
      } else if (verb == "algo") {
        std::string which;
        command >> which;
        if (which == "naive") {
          options.algorithm = DcSatAlgorithm::kNaive;
        } else if (which == "opt") {
          options.algorithm = DcSatAlgorithm::kOpt;
        } else if (which == "exhaustive") {
          options.algorithm = DcSatAlgorithm::kExhaustive;
        } else {
          options.algorithm = DcSatAlgorithm::kAuto;
        }
        std::printf("algorithm: %s\n",
                    DcSatAlgorithmToString(options.algorithm));
      } else if (verb == "prob") {
        double p = 0.5;
        command >> p;
        std::printf("set \\prob and then enter a query: estimating with "
                    "inclusion probability %.2f per pending tx\n", p);
        prob_mode_p = p;
        prob_mode = true;
      } else {
        std::printf("unknown command; \\help for help\n");
      }
      continue;
    }

    auto q = ParseDenialConstraint(trimmed);
    if (!q.ok()) {
      std::printf("parse error: %s\n", q.status().ToString().c_str());
      continue;
    }

    if (prob_mode) {
      InclusionModel model;
      model.default_probability = prob_mode_p;
      auto estimate =
          EstimateViolationProbability(*db, *q, model, 2000, 1234);
      if (!estimate.ok()) {
        std::printf("error: %s\n", estimate.status().ToString().c_str());
      } else {
        std::printf("violation probability ≈ %.3f (± %.3f, %zu samples)\n",
                    estimate->probability, estimate->standard_error,
                    estimate->samples);
      }
      prob_mode = false;
      continue;
    }

    if (!q->head_vars.empty()) {
      auto certain = CertainAnswers(engine, *q);
      auto possible = PossibleAnswers(engine, *q);
      if (!certain.ok() || !possible.ok()) {
        std::printf("error: %s\n",
                    (!certain.ok() ? certain.status() : possible.status())
                        .ToString()
                        .c_str());
        continue;
      }
      std::printf("certain answers (%zu):\n", certain->size());
      for (const Tuple& t : *certain) std::printf("  %s\n", t.ToString().c_str());
      std::printf("possible answers (%zu):\n", possible->size());
      for (const Tuple& t : *possible) {
        std::printf("  %s\n", t.ToString().c_str());
      }
      continue;
    }

    auto result = engine.Check(*q, options);
    if (!result.ok()) {
      std::printf("error: %s\n", result.status().ToString().c_str());
      continue;
    }
    std::printf("%s  [%s, %.1f ms, %zu worlds, %zu cliques]\n",
                !result->decided
                    ? "UNDECIDED: the search stopped at its world cap"
                : result->satisfied
                    ? "SATISFIED: q is false in every possible world"
                    : "NOT satisfied: q holds in some possible world",
                DcSatAlgorithmToString(result->stats.algorithm_used),
                result->stats.total_seconds * 1e3,
                result->stats.num_worlds_evaluated,
                result->stats.num_cliques);
    if (result->decided && !result->satisfied &&
        result->witness.has_value()) {
      std::printf("  witness world: %zu pending transaction(s) active\n",
                  result->witness->size());
    }
  }
  std::printf("\nbye\n");
  return 0;
}
