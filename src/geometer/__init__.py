"""Graph few-shot class-incremental node classification with attention prototypes.

A graph-attention encoder maps nodes into a shared metric space where each
class is a single prototype vector; classification is nearest prototype.
Streaming sessions add classes from K-shot supports, trained with geometric
metric losses plus teacher-student distillation under episodic biased
sampling.
"""

from .backbone import BackboneParams, encode, gat_layer, init_backbone
from .config import ConfigError, ExperimentConfig, parse_config, write_config
from .episodes import (Episode, SamplerConfig, episode_rng,
                       sample_finetune_episode, sample_pretrain_episode)
from .graph_store import (Graph, SessionStream, build_session_stream, load_graph,
                          load_session_stream, save_dataset, save_manifest)
from .losses import (LossWeights, distillation_loss, finetune_loss, proximity_loss,
                     separability_loss, softened_logits, uniformity_loss)
from .prototypes import (ClassAttentionParams, PrototypeSet, compute_prototypes,
                         init_class_attention, refine_prototype)
from .runner import (ModelState, SessionMetrics, evaluate_session, predict_nodes,
                     pretrain, run_stream_session)

__version__ = "0.1.0"
